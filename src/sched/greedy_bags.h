// Greedy list scheduling respecting the bag-constraints.
//
// Jobs in LPT order; each goes to the least-loaded machine that holds no job
// of its bag yet. Always produces a feasible schedule when one exists
// (|B_l| <= m blocks at most m-1 machines). This is the work-horse upper
// bound for the EPTAS binary search and the "naive practitioner" baseline.
#pragma once

#include "model/instance.h"
#include "model/schedule.h"

namespace bagsched::sched {

model::Schedule greedy_bags(const model::Instance& instance);

/// Variant that seeds the greedy pass with large jobs packed first-fit onto
/// the fewest machines (the pathological placement of the paper's Figure 1).
/// bench_paper's E3 uses it to show why large-job placement must be global.
model::Schedule greedy_stack_large_first(const model::Instance& instance,
                                         double large_threshold);

}  // namespace bagsched::sched
