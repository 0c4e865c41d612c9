// Framework layer: generic Session dispatch, symmetric allocation, and the
// OpRegistry unit behavior (registration rules on a local registry).
#include <gtest/gtest.h>

#include "framework/session.h"
#include "fused/embedding_a2a.h"
#include "fused/gemv_allreduce.h"

namespace fcc::fw {
namespace {

TEST(Session, SymmetricEmptyAllocatesPerPe) {
  Session s(smoke_machine_config());
  auto buf = s.symmetric_empty(128);
  EXPECT_EQ(buf->num_pes(), 4);
  EXPECT_EQ(buf->size(), 128u);
  buf->pe(3)[0] = 1.0f;
  EXPECT_EQ(buf->pe(0)[0], 0.0f);
}

TEST(Session, GenericRunDispatchesBothBackends) {
  fused::GemvAllReduceConfig cfg;
  cfg.m = 4096;
  cfg.k_global = 4096;
  cfg.functional = false;
  const auto spec = make_spec("fcc::gemv_allreduce", cfg);

  Session sf(smoke_machine_config());
  const auto rf = sf.run(spec, Backend::kFused);
  Session sb(smoke_machine_config());
  const auto rb = sb.run(spec, Backend::kBaseline);
  EXPECT_GT(rf.duration(), 0);
  EXPECT_GT(rb.duration(), 0);
  EXPECT_LT(rf.duration(), rb.duration());
}

TEST(Session, EmbeddingOpDispatches) {
  fused::EmbeddingA2AConfig cfg;
  cfg.map.num_pes = 4;
  cfg.map.tables_per_pe = 4;
  cfg.map.global_batch = 128;
  cfg.map.dim = 64;
  cfg.map.vectors_per_slice = 8;
  cfg.functional = false;

  Session s(smoke_machine_config());
  const auto r = s.run(make_spec("fcc::embedding_a2a", cfg), Backend::kFused);
  EXPECT_GT(r.duration(), 0);
}

TEST(Registry, RegistersAndRunsOnLocalRegistry) {
  OpRegistry reg;
  reg.register_op(
      {.name = "local::gemv",
       .make = pair_factory<fused::GemvAllReduceConfig,
                            fused::GemvAllReduceData,
                            fused::FusedGemvAllReduce,
                            fused::BaselineGemvAllReduce>()});
  EXPECT_TRUE(reg.contains("local::gemv"));
  EXPECT_FALSE(reg.contains("nope"));
  EXPECT_EQ(reg.names().size(), 1u);

  fused::GemvAllReduceConfig cfg;
  cfg.m = 2048;
  cfg.k_global = 2048;
  cfg.functional = false;

  // Dispatch through Session::run against the local registry.
  Session s(smoke_machine_config());
  const auto r = s.run(make_spec("local::gemv", cfg), Backend::kFused, reg);
  EXPECT_GT(r.duration(), 0);
}

TEST(Registry, RejectsDuplicatesAndUnknown) {
  OpRegistry reg;
  const auto null_factory = [](shmem::World&, const OpSpec&,
                               Backend) -> std::unique_ptr<fused::FusedOp> {
    return nullptr;
  };
  reg.register_op({.name = "x", .make = null_factory});
  EXPECT_THROW(reg.register_op({.name = "x", .make = null_factory}),
               std::logic_error);

  Session s(smoke_machine_config());
  EXPECT_THROW(s.run(make_spec("unknown", 0), Backend::kFused, reg),
               std::logic_error);
}

TEST(Registry, RejectsMissingNameOrFactory) {
  OpRegistry reg;
  EXPECT_THROW(reg.register_op({.name = "",
                                .make = [](shmem::World&, const OpSpec&,
                                           Backend)
                                    -> std::unique_ptr<fused::FusedOp> {
                                  return nullptr;
                                }}),
               std::logic_error);
  EXPECT_THROW(reg.register_op({.name = "no_factory",
                                .make = nullptr,
                                .smoke_spec = nullptr}),
               std::logic_error);
}

TEST(Registry, WrongConfigTypeThrowsBadAnyCast) {
  fused::GemvAllReduceConfig cfg;
  cfg.functional = false;
  // embedding_a2a's factory will any_cast the config to EmbeddingA2AConfig.
  Session s(smoke_machine_config());
  EXPECT_THROW(s.run(make_spec("fcc::embedding_a2a", cfg), Backend::kFused),
               std::bad_any_cast);
}

TEST(Registry, WrongConfigTypeErrorNamesTheOp) {
  fused::GemvAllReduceConfig cfg;
  cfg.functional = false;
  Session s(smoke_machine_config());
  try {
    s.run(make_spec("fcc::embedding_a2a", cfg), Backend::kFused);
    FAIL() << "expected SpecTypeError";
  } catch (const std::bad_any_cast& e) {  // SpecTypeError is-a bad_any_cast
    const std::string msg = e.what();
    EXPECT_NE(msg.find("fcc::embedding_a2a"), std::string::npos) << msg;
    EXPECT_NE(msg.find("config"), std::string::npos) << msg;
  }
}

TEST(Registry, WrongDataTypeThrowsBadAnyCast) {
  fused::GemvAllReduceConfig cfg;
  cfg.m = 2048;
  cfg.k_global = 2048;
  cfg.functional = false;
  int not_gemv_data = 0;
  // gemv_allreduce's factory will any_cast the data to GemvAllReduceData*.
  Session s(smoke_machine_config());
  EXPECT_THROW(
      s.run(make_spec("fcc::gemv_allreduce", cfg, &not_gemv_data),
            Backend::kFused),
      std::bad_any_cast);
}

TEST(Registry, WrongDataTypeErrorNamesTheOp) {
  fused::GemvAllReduceConfig cfg;
  cfg.m = 2048;
  cfg.k_global = 2048;
  cfg.functional = false;
  int not_gemv_data = 0;
  Session s(smoke_machine_config());
  try {
    s.run(make_spec("fcc::gemv_allreduce", cfg, &not_gemv_data),
          Backend::kFused);
    FAIL() << "expected SpecTypeError";
  } catch (const std::bad_any_cast& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("fcc::gemv_allreduce"), std::string::npos) << msg;
    EXPECT_NE(msg.find("data"), std::string::npos) << msg;
  }
}

}  // namespace
}  // namespace fcc::fw
