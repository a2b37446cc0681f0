/**
 * @file
 * Deterministic fault injection for exercising recovery paths.
 *
 * Faults are armed through the environment:
 *
 *     ASAP_FAULT=site:nth[:count][,site:nth[:count]...]
 *
 * Each *site* is a short string naming a probe compiled into the code
 * ("file-open", "file-read", "decompress", "env-alloc", "cell",
 * "cell-hang", "timeline-write"). Every time execution passes a probe
 * the site's hit counter increments; a rule `site:nth` makes the probe
 * fail on its nth hit (1-based), and `site:nth:count` fails `count`
 * consecutive hits starting at the nth. So `cell:1:2` fails the first
 * two executions of the "cell" probe and lets the third through —
 * exactly the shape a retry-then-succeed test needs.
 *
 * Determinism: counters are plain per-site tallies, no randomness and
 * no clocks, so a given ASAP_FAULT spec fails the same operations on
 * every run. Counters are process-wide and atomic; multi-threaded
 * sweeps should pin ASAP_JOBS=1 in tests that assert on exact hit
 * ordering across sites.
 *
 * Probes:
 *   maybeFail(site)  throws StatusError{Unavailable} — a transient,
 *                    retryable failure (I/O flake shape).
 *   maybeOom(site)   throws std::bad_alloc — the allocation-failure
 *                    shape, mapped to ResourceExhausted by
 *                    runToStatus().
 *
 * Both are no-ops (one relaxed atomic load) when ASAP_FAULT is unset,
 * so probes are safe to leave in cold setup paths. None sit on the
 * translate/walk hot path.
 */

#ifndef ASAP_COMMON_FAULT_INJECT_HH
#define ASAP_COMMON_FAULT_INJECT_HH

#include <cstdint>

namespace asap::fault
{

/** Any rules armed? (one relaxed atomic load; probes check it first) */
bool armed();

/**
 * Record one hit of @p site and report whether an armed rule says this
 * hit must fail. Counts even when it returns false.
 */
bool shouldFail(const char *site);

/** Probe: throw StatusError{Unavailable, "injected fault at <site>"}
 *  when an armed rule matches this hit of @p site. */
void maybeFail(const char *site);

/** Probe: throw std::bad_alloc when an armed rule matches this hit. */
void maybeOom(const char *site);

/** Total hits recorded for @p site (0 when never hit or unarmed). */
std::uint64_t hitCount(const char *site);

/**
 * Re-arm from @p spec (same syntax as ASAP_FAULT; nullptr or ""
 * disarms) and reset all hit counters. Tests use this; production
 * arming happens once from the environment on first probe.
 */
void reconfigure(const char *spec);

} // namespace asap::fault

#endif // ASAP_COMMON_FAULT_INJECT_HH
