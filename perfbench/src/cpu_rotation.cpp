#include "cpu_rotation.hpp"

#include <sys/syscall.h>
#include <unistd.h>

#include <vector>

namespace utilrisk::perfbench {

CpuRotation::CpuRotation()
    : owner_(static_cast<pid_t>(::syscall(SYS_gettid))) {
  if (::sched_getaffinity(owner_, sizeof(original_), &original_) != 0) {
    return;
  }
  rotator_ = std::thread([this] { rotate(); });
}

CpuRotation::~CpuRotation() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  if (!rotator_.joinable()) return;
  rotator_.join();
  ::sched_setaffinity(owner_, sizeof(original_), &original_);
}

void CpuRotation::rotate() {
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &original_)) cpus.push_back(cpu);
  }
  if (cpus.size() < 2) return;
  std::unique_lock lock(mutex_);
  for (std::size_t i = 0; !stop_; i = (i + 1) % cpus.size()) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[i], &one);
    if (::sched_setaffinity(owner_, sizeof(one), &one) != 0) return;
    wake_.wait_for(lock, kRotationPeriod, [this] { return stop_; });
  }
}

}  // namespace utilrisk::perfbench
