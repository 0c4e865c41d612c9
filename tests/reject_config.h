// Construction-time config checks shared by the operator suites: both
// backends of an operator must reject a bad config when constructed, with
// a message that names the offending field and value, instead of aborting
// mid-run or running zero work.
#pragma once

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "shmem/world.h"

namespace fcc::test {

/// Constructs `Fused` and `Baseline` over `cfg` (no data) on `w` and
/// expects each to throw a std::logic_error naming `field` and
/// "got <value>".
template <typename Fused, typename Baseline, typename Config>
void expect_both_reject(shmem::World& w, const Config& cfg,
                        const std::string& field, int value) {
  const std::string got = "got " + std::to_string(value);
  const auto expect_named = [&](const char* backend, auto construct) {
    try {
      construct();
      ADD_FAILURE() << backend << " accepted " << field << " = " << value;
    } catch (const std::logic_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(field), std::string::npos) << backend << ": " << what;
      EXPECT_NE(what.find(got), std::string::npos) << backend << ": " << what;
    }
  };
  expect_named("fused", [&] { Fused op(w, cfg, nullptr); });
  expect_named("baseline", [&] { Baseline op(w, cfg, nullptr); });
}

}  // namespace fcc::test
