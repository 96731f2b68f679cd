// Run-time kill switches of the hardware dispatch ladders
// (ECQV_DISABLE_ASM, _IFMA, _AESNI, _CLMUL, _SHANI): set to anything but
// the empty string or "0" forces the portable tier.
#pragma once

#include <cstdlib>

namespace ecqv {

[[nodiscard]] inline bool kill_switch_thrown(const char* name) {
  const char* env = std::getenv(name);
  return env != nullptr && env[0] != '\0' && !(env[0] == '0' && env[1] == '\0');
}

}  // namespace ecqv
