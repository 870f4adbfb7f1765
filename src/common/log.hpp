// Assertion and diagnostic helpers.
//
// FLOV_CHECK is an always-on invariant check (simulator correctness depends
// on protocol invariants holding; silently corrupt state is worse than an
// abort). FLOV_DCHECK compiles out in release builds for hot paths. The
// message is built only once a check fails, out of line (check_failed).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

namespace flov {

[[noreturn]] void fatal(const char* file, int line, const std::string& msg);

/// FLOV_CHECK's cold path; `msg()` yields the message.
template <typename Msg>
[[noreturn, gnu::cold, gnu::noinline]] void check_failed(
    const char* file, int line, const char* cond, const Msg& msg) {
  fatal(file, line, std::string("check failed: ") + cond + " — " + msg());
}

}  // namespace flov

#define FLOV_CHECK(cond, msg)                                           \
  do {                                                                  \
    if (__builtin_expect(!(cond), 0)) {                                 \
      ::flov::check_failed(__FILE__, __LINE__, #cond,                   \
                           [&]() -> std::string { return (msg); });    \
    }                                                                   \
  } while (0)

#ifndef NDEBUG
#define FLOV_DCHECK(cond, msg) FLOV_CHECK(cond, msg)
#else
#define FLOV_DCHECK(cond, msg) \
  do {                         \
  } while (0)
#endif
