// Round-robin arbiter: N requestors, one grant per invocation, priority
// rotates past the last winner. Used as the building block of the separable
// VC and switch allocators. Two ints, held by value (routers keep one per
// port in a fixed array).
#pragma once

#include <cstdint>

#include "common/log.hpp"

namespace flov {

class RoundRobinArbiter {
 public:
  RoundRobinArbiter() = default;
  explicit RoundRobinArbiter(int num_inputs)
      : num_inputs_(num_inputs) {
    FLOV_CHECK(num_inputs >= 1, "arbiter needs at least one input");
  }

  int num_inputs() const { return num_inputs_; }

  /// Grants the first requesting input at or after the rotating priority
  /// pointer; returns -1 if no input requests. Bit i of `requests` set means
  /// input i requests. Advances the pointer past the winner so it has
  /// lowest priority next time. Requires num_inputs <= 64.
  int arbitrate(std::uint64_t requests) {
    FLOV_DCHECK(num_inputs_ <= 64, "mask arbiter limited to 64 inputs");
    if (requests == 0) return -1;
    // Scan [pointer, N) then wrap to [0, pointer).
    const std::uint64_t at_or_after = requests >> pointer_;
    const int i = at_or_after != 0 ? pointer_ + __builtin_ctzll(at_or_after)
                                   : __builtin_ctzll(requests);
    pointer_ = i + 1 == num_inputs_ ? 0 : i + 1;
    return i;
  }

  void reset() { pointer_ = 0; }

 private:
  int num_inputs_ = 1;
  int pointer_ = 0;
};

}  // namespace flov
