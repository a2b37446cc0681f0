#include "common/stats.hh"

#include "common/logging.hh"

namespace asap
{

std::string
LevelDistribution::format() const
{
    std::string out;
    for (std::size_t i = 0; i < numMemLevels; ++i) {
        const auto level = static_cast<MemLevel>(i);
        out += strprintf("%s %5.1f%%  ", memLevelName(level),
                         100.0 * fraction(level));
    }
    return out;
}

} // namespace asap
