#include "mem/cache.hh"

#include "common/logging.hh"

namespace asap
{

Cache::Cache(const CacheConfig &config)
    : config_(config), setShift_(config.lineShift)
{
    fatal_if(config_.ways == 0 || config_.numLines() % config_.ways != 0,
             "%s: bad associativity", config_.name);
    fatal_if(!isPow2(config_.numSets()),
             "%s: set count must be a power of two", config_.name);
    ways_.init(config_.numSets(), config_.ways);
}

} // namespace asap
