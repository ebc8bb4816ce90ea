#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

namespace utilrisk::perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

/// 1-based nearest rank of quantile q among n samples, clamped to [1, n].
std::size_t nearest_rank(double q, std::size_t n) {
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[nearest_rank(q, values.size()) - 1];
}

Tail tail_percentile(std::vector<double> values, double wanted,
                     std::size_t min_beyond) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  // Highest rank that leaves min_beyond samples above it, never below
  // the median's rank.
  const std::size_t median_rank = nearest_rank(0.5, n);
  const std::size_t wanted_rank = nearest_rank(wanted, n);
  const std::size_t cap = n > min_beyond ? n - min_beyond : 0;
  const std::size_t rank =
      std::max(median_rank, std::min(wanted_rank, cap));
  tail.quantile = rank == wanted_rank
                      ? wanted
                      : static_cast<double>(rank) / static_cast<double>(n);
  tail.value = values[rank - 1];
  tail.beyond = n - rank;
  return tail;
}

std::string percentile_label(const Tail& tail) {
  char text[16];
  std::snprintf(text, sizeof(text), "p%.4g", tail.quantile * 100.0);
  return text;
}

bool step_passes(const LadderStep& step) {
  if (step.aborted || step.sent == 0) return false;
  const double share =
      static_cast<double>(step.on_time) / static_cast<double>(step.sent);
  return share >= kOnTimeShare && step.lag_p99_ms <= kLagLimitMs &&
         step.max_in_flight < kInFlightLimit;
}

double max_sustained_rate(const std::vector<LadderStep>& steps) {
  // rate -> (steps passed, steps run)
  std::map<double, std::pair<int, int>> by_rate;
  for (const LadderStep& step : steps) {
    auto& [passed, run] = by_rate[step.rate];
    passed += step_passes(step) ? 1 : 0;
    ++run;
  }
  double best = 0.0;
  for (const auto& [rate, counts] : by_rate) {
    if (2 * counts.first <= counts.second) break;
    best = rate;
  }
  return best;
}

double slope(const std::vector<std::pair<double, double>>& xy) {
  if (xy.size() < 2) return 0.0;
  double mean_x = 0.0;
  double mean_y = 0.0;
  for (const auto& [x, y] : xy) {
    mean_x += x;
    mean_y += y;
  }
  mean_x /= static_cast<double>(xy.size());
  mean_y /= static_cast<double>(xy.size());
  double sxx = 0.0;
  double sxy = 0.0;
  for (const auto& [x, y] : xy) {
    sxx += (x - mean_x) * (x - mean_x);
    sxy += (x - mean_x) * (y - mean_y);
  }
  return sxx > 0.0 ? sxy / sxx : 0.0;
}

std::string layer_of(const char* name) {
  const std::string text(name);
  return text.substr(0, text.find('.'));
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0 &&
        static_cast<std::size_t>(span.parent) < spans.size()) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(
          span.start_ns, span.end_ns);
    }
  }
  std::vector<std::int64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t begin = spans[i].start_ns;
    const std::int64_t end = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Measure of the union of the children's intervals, clipped to the
    // parent, by a sweep over the sorted starts.
    std::int64_t covered = 0;
    std::int64_t cursor = begin;
    for (auto [child_begin, child_end] : kids) {
      child_begin = std::max(child_begin, cursor);
      child_end = std::min(child_end, end);
      if (child_end > child_begin) {
        covered += child_end - child_begin;
        cursor = child_end;
      }
    }
    self[i] = std::max<std::int64_t>(0, end - begin - covered);
  }
  return self;
}

}  // namespace utilrisk::perfbench
