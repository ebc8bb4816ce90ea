// Rotates the calling thread over every CPU it may run on.
//
// On a shared virtual machine one vCPU at a time is often much slower than
// the others (a neighbour on the same physical core: up to 1.5x measured
// on a 4-vCPU KVM guest), and which one changes every few seconds. A
// single-threaded measurement that stays on the slow vCPU for its whole
// run reads that much slower. While a CpuRotation is alive, a helper
// thread moves the owner's affinity to the next allowed CPU every
// kRotationPeriod, so the measured thread spends equal time on each and a
// slow vCPU costs the run only its share. The original affinity is
// restored on destruction. Where the affinity cannot be changed the
// rotation does nothing.
#pragma once

#include <sched.h>
#include <sys/types.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

namespace utilrisk::perfbench {

inline constexpr std::chrono::milliseconds kRotationPeriod{25};

class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

 private:
  void rotate();

  pid_t owner_ = 0;  ///< the thread being rotated
  cpu_set_t original_{};
  std::mutex mutex_;  ///< guards stop_
  std::condition_variable wake_;
  bool stop_ = false;
  std::thread rotator_;  ///< declared last: uses every member above
};

}  // namespace utilrisk::perfbench
