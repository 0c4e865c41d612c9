// Global registry dispatch: the self-registered built-in operators, the
// registry-wide fused-vs-baseline sweep, and the extension point — a new
// operator registered by this TU alone and dispatched via Session::run
// without touching any framework file.
#include <gtest/gtest.h>

#include <algorithm>

#include "framework/session.h"

namespace fcc::fw {
namespace {

// ---------------------------------------------------------------------------
// A trivial extra operator, registered entirely from this test TU.
// ---------------------------------------------------------------------------

struct NullOpConfig {
  TimeNs fused_ns = 500;
  TimeNs baseline_ns = 2000;
};

class NullOp final : public fused::FusedOp {
 public:
  NullOp(shmem::World& world, TimeNs cost, const char* name)
      : FusedOp(world), cost_(cost), name_(name) {}

  const char* name() const override { return name_; }

  sim::Co run() override {
    begin_run(world_.n_pes());
    co_await sim::delay(engine(), cost_);
    finish_run_uniform();
  }

 private:
  TimeNs cost_;
  const char* name_;
};

const OpRegistrar null_op_registrar{{
    .name = "test::null_op",
    .make =
        [](shmem::World& world, const OpSpec& spec, Backend backend)
        -> std::unique_ptr<fused::FusedOp> {
      const auto& cfg = spec_config<NullOpConfig>(spec);
      if (backend == Backend::kFused) {
        return std::make_unique<NullOp>(world, cfg.fused_ns, "fused_null_op");
      }
      return std::make_unique<NullOp>(world, cfg.baseline_ns,
                                      "baseline_null_op");
    },
    .smoke_spec = [] { return make_spec("test::null_op", NullOpConfig{}); },
}};

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

TEST(GlobalRegistry, BuiltinOpsSelfRegister) {
  auto& reg = OpRegistry::global();
  EXPECT_TRUE(reg.contains("fcc::embedding_a2a"));
  EXPECT_TRUE(reg.contains("fcc::gemv_allreduce"));
  EXPECT_TRUE(reg.contains("fcc::gemm_a2a"));
  EXPECT_TRUE(reg.contains("fcc::moe_dispatch"));
  const auto names = reg.names();
  EXPECT_GE(names.size(), 4u);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(GlobalRegistry, UnknownNameThrows) {
  Session s(smoke_machine_config());
  EXPECT_THROW(s.run(make_spec("fcc::no_such_op", 0), Backend::kFused),
               std::logic_error);
}

TEST(GlobalRegistry, UnknownNameErrorListsRegisteredOpsSorted) {
  Session s(smoke_machine_config());
  try {
    s.run(make_spec("fcc::no_such_op", 0), Backend::kFused);
    FAIL() << "expected unknown-op error";
  } catch (const std::logic_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("fcc::no_such_op"), std::string::npos) << msg;
    // Every built-in appears, in sorted order.
    const std::vector<std::string> builtins = {
        "fcc::embedding_a2a", "fcc::gemm_a2a", "fcc::gemv_allreduce",
        "fcc::moe_dispatch"};
    std::size_t prev = 0;
    for (const auto& name : builtins) {
      const auto pos = msg.find(name);
      ASSERT_NE(pos, std::string::npos) << name << " missing from: " << msg;
      EXPECT_GT(pos, prev) << msg;
      prev = pos;
    }
  }
}

TEST(GlobalRegistry, DuplicateRegistrationThrows) {
  auto& reg = OpRegistry::global();
  ASSERT_TRUE(reg.contains("fcc::gemv_allreduce"));
  OpEntry dup = reg.at("fcc::gemv_allreduce");
  EXPECT_THROW(reg.register_op(std::move(dup)), std::logic_error);
}

// The registry-wide sweep: every registered op (the three built-ins plus
// anything future TUs add) must provide a smoke spec and beat its own
// baseline on the smoke machine.
TEST(GlobalRegistry, FusedBeatsBaselineForEveryRegisteredOp) {
  const auto names = OpRegistry::global().names();
  ASSERT_GE(names.size(), 3u);
  for (const auto& name : names) {
    const auto& entry = OpRegistry::global().at(name);
    ASSERT_TRUE(entry.smoke_spec != nullptr) << name;
    const auto spec = entry.smoke_spec();
    EXPECT_EQ(spec.name, name);

    Session sf(smoke_machine_config());
    const auto fused = sf.run(spec, Backend::kFused);
    Session sb(smoke_machine_config());
    const auto baseline = sb.run(spec, Backend::kBaseline);

    EXPECT_GT(fused.duration(), 0) << name;
    EXPECT_GT(baseline.duration(), 0) << name;
    EXPECT_LT(fused.duration(), baseline.duration()) << name;
  }
}

// Extension point: the trivial op above went in through OpRegistrar alone —
// no framework/session.h change — and dispatches like any built-in.
TEST(GlobalRegistry, NewOpRunsViaSessionWithoutFrameworkChanges) {
  ASSERT_TRUE(OpRegistry::global().contains("test::null_op"));

  NullOpConfig cfg;
  cfg.fused_ns = 700;
  cfg.baseline_ns = 2100;

  Session s(smoke_machine_config());
  const auto rf = s.run(make_spec("test::null_op", cfg), Backend::kFused);
  EXPECT_EQ(rf.duration(), 700);
  EXPECT_EQ(rf.pe_end.size(), static_cast<std::size_t>(kSmokePes));
  EXPECT_DOUBLE_EQ(rf.skew(), 0.0);

  const auto rb = s.run(make_spec("test::null_op", cfg), Backend::kBaseline);
  EXPECT_EQ(rb.duration(), 2100);
  EXPECT_LT(rf.duration(), rb.duration());
}

}  // namespace
}  // namespace fcc::fw
