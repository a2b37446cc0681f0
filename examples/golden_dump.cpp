/**
 * @file
 * Regenerates the golden RunStats literals for tests/test_sim.cc
 * (suite Golden), or with --systems the System digests for
 * tests/test_system.cc (suite SystemDigest). Run after an *intentional*
 * model change and paste the emitted tables over the existing ones;
 * hot-path refactors must NOT need a regeneration — that is the point
 * of the golden tests.
 */

#include <cstdio>
#include <cstring>

#include "../tests/golden_scenarios.hh"

using namespace asap;
using namespace asap::golden;

namespace
{

template <std::size_t N>
void
printArray(const std::array<std::uint64_t, N> &values)
{
    std::printf("{");
    for (std::size_t i = 0; i < N; ++i) {
        std::printf("%s%lu", i == 0 ? "" : ", ",
                    static_cast<unsigned long>(values[i]));
    }
    std::printf("}");
}

void
printExpect(const std::string &name, const Expect &e)
{
    std::printf("    {\"%s\",\n     {%lu, %lu, %lu, %lu,\n"
                "      %lu, %lu, %lu, %lu,\n"
                "      %lu, %lu, %lu, %lu,\n      ",
                name.c_str(),
                static_cast<unsigned long>(e.tlbL1Hits),
                static_cast<unsigned long>(e.tlbL2Hits),
                static_cast<unsigned long>(e.tlbMisses),
                static_cast<unsigned long>(e.faults),
                static_cast<unsigned long>(e.walkCount),
                static_cast<unsigned long>(e.walkSum),
                static_cast<unsigned long>(e.walkMin),
                static_cast<unsigned long>(e.walkMax),
                static_cast<unsigned long>(e.totalCycles),
                static_cast<unsigned long>(e.walkCycles),
                static_cast<unsigned long>(e.dataCycles),
                static_cast<unsigned long>(e.computeCycles));
    printArray(e.levelTotal);
    std::printf(",\n      ");
    printArray(e.levelPwc);
    std::printf(",\n      ");
    printArray(e.levelDram);
    std::printf(",\n      %lu, %lu, %lu, %lu,\n      %lu}},\n",
                static_cast<unsigned long>(e.appTriggers),
                static_cast<unsigned long>(e.appRangeHits),
                static_cast<unsigned long>(e.appAttempted),
                static_cast<unsigned long>(e.appIssued),
                static_cast<unsigned long>(e.hostIssued));
}

void
printSystemDigests()
{
    std::printf("const std::map<std::string, golden::SystemDigest> "
                "expected = {\n");
    for (const SystemShape &shape : systemShapes()) {
        const SystemDigest d = buildAndDigest(shape);
        std::printf("    {\"%s\",\n     {0x%016lx, 0x%016lx, 0x%016lx,\n"
                    "      0x%016lx, 0x%016lx}},\n",
                    shape.name.c_str(),
                    static_cast<unsigned long>(d.pageTables),
                    static_cast<unsigned long>(d.layout),
                    static_cast<unsigned long>(d.counters),
                    static_cast<unsigned long>(d.growth),
                    static_cast<unsigned long>(d.frames));
    }
    std::printf("};\n");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 1 && std::strcmp(argv[1], "--systems") == 0) {
        printSystemDigests();
        return 0;
    }
    std::printf("const std::map<std::string, golden::Expect> expected = {\n");
    for (const Scenario &scenario : goldenScenarios())
        printExpect(scenario.name, flatten(runScenario(scenario)));
    std::printf("};\n\n");

    // The extra shapes: the same digest plus RunStats::dyn.
    std::vector<RunStats> extra;
    std::printf("const std::map<std::string, golden::Expect> expected = {\n");
    for (const Scenario &scenario : extraScenarios()) {
        extra.push_back(runScenario(scenario));
        printExpect(scenario.name, flatten(extra.back()));
    }
    std::printf("};\n");
    std::printf("const std::map<std::string, std::array<std::uint64_t, 16>> "
                "expectedDyn = {\n");
    for (std::size_t i = 0; i < extra.size(); ++i) {
        std::printf("    {\"%s\", ", extraScenarios()[i].name.c_str());
        printArray(flattenDyn(extra[i]));
        std::printf("},\n");
    }
    std::printf("};\n");
    return 0;
}
