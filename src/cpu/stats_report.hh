/**
 * @file
 * Shared rendering of CPU-model statistics into gem5-style
 * "group.stat value" dumps.
 */

#ifndef FF_CPU_STATS_REPORT_HH
#define FF_CPU_STATS_REPORT_HH

#include <cstdint>
#include <map>
#include <string>

#include "branch/gshare.hh"
#include "cpu/cycle_classes.hh"
#include "memory/hierarchy.hh"

namespace ff
{
namespace cpu
{

/** Renders @p stats as one "group.stat value" line each, in the
 *  map's (sorted) order. */
std::string statLines(const char *group,
                      const std::map<std::string, std::uint64_t> &stats);

/** Cycle classes, branch and per-level access stats common to all
 *  timed models. */
std::string commonStatsReport(const CycleAccounting &acct,
                              const branch::PredictorStats &branches,
                              const memory::AccessStats &accesses);

} // namespace cpu
} // namespace ff

#endif // FF_CPU_STATS_REPORT_HH
