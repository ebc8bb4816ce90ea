#include "trace.hpp"

namespace utilrisk::perfbench {

std::int64_t Tracer::begin(const char* name, std::int64_t parent,
                           std::uint64_t request) {
  if (!enabled_) return -1;
  const std::int64_t start = now_ns();
  std::lock_guard lock(mutex_);
  spans_.push_back({name, parent, request, start, start});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void Tracer::end(std::int64_t handle) {
  if (handle < 0) return;
  const std::int64_t stop = now_ns();
  std::lock_guard lock(mutex_);
  spans_[static_cast<std::size_t>(handle)].end_ns = stop;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard lock(mutex_);
  return spans_;
}

std::map<std::string, double> Tracer::self_ms_by_layer() const {
  const std::vector<Span> recorded = spans();
  const std::vector<std::int64_t> self = self_times_ns(recorded);
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < recorded.size(); ++i) {
    by_layer[layer_of(recorded[i].name)] +=
        static_cast<double>(self[i]) / 1e6;
  }
  return by_layer;
}

}  // namespace utilrisk::perfbench
