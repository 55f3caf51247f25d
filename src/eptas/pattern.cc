#include "eptas/pattern.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "util/grid.h"

namespace bagsched::eptas {

using model::BagId;
using model::JobId;

int Pattern::jobs_in_pattern() const {
  int total = 0;
  for (int c : pchoice) {
    if (c >= 0) ++total;
  }
  for (int c : xcount) total += c;
  return total;
}

std::vector<int> Pattern::signature() const {
  std::vector<int> key;
  key.reserve(pchoice.size() + xcount.size());
  key.insert(key.end(), pchoice.begin(), pchoice.end());
  key.insert(key.end(), xcount.begin(), xcount.end());
  return key;
}

PatternSpace build_pattern_space(const Transformed& transformed,
                                 const Classification& cls) {
  PatternSpace space;
  space.max_height = cls.target_height;
  const model::Instance& inst = transformed.instance;

  // Priority bags: distinct ml sizes with counts.
  for (BagId l = 0; l < inst.num_bags(); ++l) {
    if (!transformed.is_priority[static_cast<std::size_t>(l)]) continue;
    std::map<double, int, std::greater<>> counts;
    for (JobId j : inst.bag(l)) {
      if (transformed.class_of(j) != JobClass::Small) {
        ++counts[inst.job(j).size];
      }
    }
    if (counts.empty()) continue;  // no ml jobs: irrelevant for patterns
    PatternSpace::PriorityBag pbag;
    pbag.bag = l;
    for (const auto& [size, count] : counts) {
      pbag.sizes.push_back(size);
      pbag.counts.push_back(count);
    }
    space.priority_bags.push_back(std::move(pbag));
  }

  // X sizes: large jobs of non-priority (large-part) bags.
  std::map<double, int, std::greater<>> x_counts;
  for (JobId j = 0; j < inst.num_jobs(); ++j) {
    const BagId bag = inst.job(j).bag;
    if (transformed.is_priority[static_cast<std::size_t>(bag)]) continue;
    if (transformed.class_of(j) == JobClass::Large) {
      ++x_counts[inst.job(j).size];
    }
  }
  for (const auto& [size, count] : x_counts) {
    space.x_sizes.push_back(size);
    space.x_avail.push_back(count);
  }
  return space;
}

Pattern empty_pattern(const PatternSpace& space) {
  Pattern pattern;
  pattern.pchoice.assign(
      static_cast<std::size_t>(space.num_priority()), -1);
  pattern.xcount.assign(static_cast<std::size_t>(space.num_x_sizes()), 0);
  pattern.height = 0.0;
  return pattern;
}

std::optional<Pattern> pattern_from_machine(
    const PatternSpace& space, const Transformed& transformed,
    const std::vector<JobId>& machine_jobs) {
  const model::Instance& inst = transformed.instance;
  Pattern pattern = empty_pattern(space);

  // Index helpers.
  std::map<BagId, int> pbag_index;
  for (int i = 0; i < space.num_priority(); ++i) {
    pbag_index[space.priority_bags[static_cast<std::size_t>(i)].bag] = i;
  }

  for (JobId j : machine_jobs) {
    if (transformed.class_of(j) == JobClass::Small) continue;
    const BagId bag = inst.job(j).bag;
    const double size = inst.job(j).size;
    const auto it = pbag_index.find(bag);
    if (it != pbag_index.end()) {
      const int i = it->second;
      if (pattern.contains_priority(i)) return std::nullopt;  // two of one bag
      const auto& sizes =
          space.priority_bags[static_cast<std::size_t>(i)].sizes;
      int size_index = -1;
      for (std::size_t s = 0; s < sizes.size(); ++s) {
        if (util::approx_eq(sizes[s], size)) {
          size_index = static_cast<int>(s);
          break;
        }
      }
      if (size_index < 0) return std::nullopt;
      pattern.pchoice[static_cast<std::size_t>(i)] = size_index;
    } else {
      // Non-priority ml job: must be large (mediums were removed).
      int size_index = -1;
      for (int s = 0; s < space.num_x_sizes(); ++s) {
        if (util::approx_eq(space.x_sizes[static_cast<std::size_t>(s)],
                            size)) {
          size_index = s;
          break;
        }
      }
      if (size_index < 0) return std::nullopt;
      ++pattern.xcount[static_cast<std::size_t>(size_index)];
    }
    pattern.height += size;
  }
  if (pattern.height > space.max_height + 1e-9) return std::nullopt;
  return pattern;
}

double pattern_cost(const Pattern& pattern) {
  return pattern.height * pattern.height;
}

namespace {

/// Depth-first branch-and-bound for the pricing problem.
///
/// Decision levels: one per priority bag (choose none or one size), then one
/// per x size (choose a count). Score of a complete pattern:
///   duals.machine
///   + sum over chosen priority entries of (priority dual + small_block dual)
///   + sum over x entries of x_size dual
///   + duals.area * height          (R4 coefficient is the height)
///   - height^2                      (master objective cost)
class Pricer {
 public:
  Pricer(const PatternSpace& space, const PricingDuals& duals,
         const PricingOptions& options)
      : space_(space), duals_(duals), options_(options) {
    best_ = empty_pattern(space_);
    best_score_ = score_of(best_);
    current_ = best_;

    // Optimistic per-level gains for pruning: the best possible additional
    // score from the remaining levels, ignoring the height budget and the
    // quadratic cost growth (both only reduce the true score).
    const int levels = space_.num_priority() + space_.num_x_sizes();
    optimistic_suffix_.assign(static_cast<std::size_t>(levels) + 1, 0.0);
    for (int level = levels - 1; level >= 0; --level) {
      double gain = 0.0;
      if (level < space_.num_priority()) {
        const auto& pbag =
            space_.priority_bags[static_cast<std::size_t>(level)];
        for (std::size_t s = 0; s < pbag.sizes.size(); ++s) {
          gain = std::max(
              gain, entry_gain_priority(level, static_cast<int>(s)));
        }
      } else {
        const int xs = level - space_.num_priority();
        const double unit = entry_gain_x(xs);
        if (unit > 0) {
          gain = unit * space_.x_avail[static_cast<std::size_t>(xs)];
        }
      }
      optimistic_suffix_[static_cast<std::size_t>(level)] =
          optimistic_suffix_[static_cast<std::size_t>(level) + 1] +
          std::max(0.0, gain);
    }
  }

  std::optional<Pattern> run() {
    dfs(0, 0.0);
    if (best_score_ > options_.improvement_tolerance) return best_;
    return std::nullopt;
  }

  bool capped() const { return nodes_ > options_.max_nodes; }

 private:
  /// Linear part of the gain of one priority entry (excluding quadratic
  /// cost): coverage dual + block dual + area dual * size.
  double entry_gain_priority(int pbag, int size_index) const {
    const double size = space_.priority_bags[static_cast<std::size_t>(pbag)]
                            .sizes[static_cast<std::size_t>(size_index)];
    return duals_.priority[static_cast<std::size_t>(pbag)]
                          [static_cast<std::size_t>(size_index)] +
           duals_.small_block[static_cast<std::size_t>(pbag)] +
           duals_.area * size;
  }

  double entry_gain_x(int x_index) const {
    const double size = space_.x_sizes[static_cast<std::size_t>(x_index)];
    return duals_.x_size[static_cast<std::size_t>(x_index)] +
           duals_.area * size;
  }

  /// Full score of a complete pattern (reduced-cost numerator).
  double score_of(const Pattern& pattern) const {
    double score = duals_.machine + duals_.area * pattern.height -
                   pattern_cost(pattern);
    for (int i = 0; i < space_.num_priority(); ++i) {
      const int choice = pattern.pchoice[static_cast<std::size_t>(i)];
      if (choice >= 0) {
        score += duals_.priority[static_cast<std::size_t>(i)]
                                [static_cast<std::size_t>(choice)] +
                 duals_.small_block[static_cast<std::size_t>(i)];
      }
    }
    for (int s = 0; s < space_.num_x_sizes(); ++s) {
      score += duals_.x_size[static_cast<std::size_t>(s)] *
               pattern.xcount[static_cast<std::size_t>(s)];
    }
    return score;
  }

  /// `linear` accumulates all gains except the quadratic height cost.
  void dfs(int level, double linear) {
    if (++nodes_ > options_.max_nodes) return;
    const double here =
        duals_.machine + linear - current_.height * current_.height;
    if (here > best_score_) {
      best_score_ = here;
      best_ = current_;
    }
    const int levels = space_.num_priority() + space_.num_x_sizes();
    if (level >= levels) return;
    // Prune: even with every remaining gain and no extra cost we lose.
    if (here + optimistic_suffix_[static_cast<std::size_t>(level)] <=
        best_score_ + 1e-12) {
      return;
    }

    if (level < space_.num_priority()) {
      const auto& pbag =
          space_.priority_bags[static_cast<std::size_t>(level)];
      // Option: skip this bag.
      dfs(level + 1, linear);
      // Option: take one of its sizes.
      for (std::size_t s = 0; s < pbag.sizes.size(); ++s) {
        const double size = pbag.sizes[s];
        if (current_.height + size > space_.max_height + 1e-12) continue;
        current_.pchoice[static_cast<std::size_t>(level)] =
            static_cast<int>(s);
        current_.height += size;
        dfs(level + 1, linear + entry_gain_priority(level,
                                                    static_cast<int>(s)));
        current_.height -= size;
        current_.pchoice[static_cast<std::size_t>(level)] = -1;
      }
    } else {
      const int xs = level - space_.num_priority();
      const double size = space_.x_sizes[static_cast<std::size_t>(xs)];
      const double unit = entry_gain_x(xs);
      const int max_count = std::min(
          space_.x_avail[static_cast<std::size_t>(xs)],
          static_cast<int>(std::floor(
              (space_.max_height - current_.height) / size + 1e-12)));
      // count = 0 first, then increasing.
      dfs(level + 1, linear);
      for (int c = 1; c <= max_count; ++c) {
        current_.xcount[static_cast<std::size_t>(xs)] = c;
        current_.height += size;
        dfs(level + 1, linear + unit * c);
      }
      current_.height -= size * current_.xcount[static_cast<std::size_t>(xs)];
      current_.xcount[static_cast<std::size_t>(xs)] = 0;
    }
  }

  const PatternSpace& space_;
  const PricingDuals& duals_;
  PricingOptions options_;
  Pattern best_;
  Pattern current_;
  double best_score_ = 0.0;
  long long nodes_ = 0;
  std::vector<double> optimistic_suffix_;
};

}  // namespace

std::optional<Pattern> price_pattern(const PatternSpace& space,
                                     const PricingDuals& duals,
                                     const PricingOptions& options,
                                     bool* capped) {
  Pricer pricer(space, duals, options);
  auto column = pricer.run();
  if (capped != nullptr) *capped = pricer.capped();
  return column;
}

}  // namespace bagsched::eptas
