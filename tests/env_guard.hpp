// Scoped environment override for the dispatch-ladder differential tests.
// The kill switches (ECQV_DISABLE_AESNI, ECQV_DISABLE_CLMUL,
// ECQV_DISABLE_SHANI, ...) are re-read at run time, so a guard flips the
// active tier for the code under test and restores it on scope exit.
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

namespace ecqv::testing {

class EnvGuard {
 public:
  EnvGuard(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    ::setenv(name, value, 1);
  }
  ~EnvGuard() {
    if (had_old_)
      ::setenv(name_, old_.c_str(), 1);
    else
      ::unsetenv(name_);
  }
  EnvGuard(const EnvGuard&) = delete;
  EnvGuard& operator=(const EnvGuard&) = delete;

 private:
  const char* name_;
  std::string old_;
  bool had_old_;
};

/// Runs `body` on the active dispatch tier, then again with `kill_switch`
/// set, so one test pins both rungs of the ladder.
template <typename Body>
void on_both_tiers(const char* kill_switch, Body body) {
  {
    SCOPED_TRACE("tier: default");
    body();
  }
  EnvGuard off(kill_switch, "1");
  SCOPED_TRACE(std::string("tier: ") + kill_switch + "=1");
  body();
}

}  // namespace ecqv::testing
