// Self-registering operator registry (the "new PyTorch operator" table).
//
// Each fused operator's translation unit registers a factory at static
// initialization via OpRegistrar, so adding an operator touches zero
// framework files: the registry maps an op name to a factory that builds
// either the fused or the baseline variant as a fused::FusedOp, and
// Session::run() dispatches any OpSpec through it — mirroring how a graph
// transformation pass swaps `embedding` + `all_to_all` nodes for
// `fcc::embedding_a2a` and the compiled graph then invokes it by name.
#pragma once

#include <any>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fused/op_runtime.h"

namespace fcc::fw {

enum class Backend {
  kFused,     // GPU-initiated intra-kernel communication
  kBaseline,  // bulk-synchronous kernels + ccl collectives
};

/// Type-erased operator invocation: the registry key plus the operator's
/// config (by value) and optional data payload (typed pointer, so a
/// mismatched data type throws instead of being silent UB). Build with
/// make_spec().
struct OpSpec {
  std::string name;
  std::any config;
  std::any data;  // empty, or a Data* for the operator's data struct
};

/// Thrown by spec_config / spec_data when an OpSpec carries the wrong
/// config/data type for the factory unpacking it. Derives from
/// std::bad_any_cast (the error it wraps) but names the offending op and
/// the types involved instead of the bare "bad any_cast".
class SpecTypeError : public std::bad_any_cast {
 public:
  explicit SpecTypeError(std::string msg) : msg_(std::move(msg)) {}
  const char* what() const noexcept override { return msg_.c_str(); }

 private:
  std::string msg_;
};

/// Builds an OpSpec carrying `config` *by value*: the config is moved into
/// the spec's std::any here, and every subsequent OpSpec copy (Graph nodes
/// store specs by value; registry dispatch passes them around) copies the
/// config with it. Configs are small POD-ish structs by convention — keep
/// them cheap to copy and put bulky tensors behind the Data* payload, which
/// is carried as a raw pointer and never deep-copied (the caller owns the
/// pointee and must keep it alive across the run).
template <typename Config>
OpSpec make_spec(std::string name, Config config) {
  OpSpec spec;
  spec.name = std::move(name);
  spec.config = std::move(config);
  return spec;
}

template <typename Config, typename Data>
OpSpec make_spec(std::string name, Config config, Data* data) {
  OpSpec spec = make_spec(std::move(name), std::move(config));
  if (data != nullptr) spec.data = data;
  return spec;
}

namespace detail {
/// Formats the SpecTypeError message ("op 'x': spec config holds 'A' but
/// the factory expects 'B'"); out of line so the template stays slim.
std::string spec_type_error_msg(const std::string& op, const char* slot,
                                const char* held, const char* expected);
}  // namespace detail

/// Typed accessors for factories unpacking an OpSpec. Throw SpecTypeError
/// (a std::bad_any_cast naming the op) if the spec carries the wrong
/// config/data type.
template <typename Config>
const Config& spec_config(const OpSpec& spec) {
  const Config* cfg = std::any_cast<Config>(&spec.config);
  if (cfg == nullptr) {
    throw SpecTypeError(detail::spec_type_error_msg(
        spec.name, "config",
        spec.config.has_value() ? spec.config.type().name() : "(empty)",
        typeid(Config).name()));
  }
  return *cfg;
}

template <typename Data>
Data* spec_data(const OpSpec& spec) {
  if (!spec.data.has_value()) return nullptr;
  Data* const* data = std::any_cast<Data*>(&spec.data);
  if (data == nullptr) {
    throw SpecTypeError(detail::spec_type_error_msg(
        spec.name, "data", spec.data.type().name(), typeid(Data*).name()));
  }
  return *data;
}

/// PEs every smoke spec targets (one scale-up node, Table I).
inline constexpr int kSmokePes = 4;

inline gpu::Machine::Config smoke_machine_config() {
  gpu::Machine::Config c;
  c.num_nodes = 1;
  c.gpus_per_node = kSmokePes;
  return c;
}

/// Operator-registry entry: name, the op pattern the graph rewrite pass
/// collapses into this op, and the factory building either backend variant.
struct OpEntry {
  using Factory = std::function<std::unique_ptr<fused::FusedOp>(
      shmem::World&, const OpSpec&, Backend)>;

  std::string name;
  Factory make = nullptr;
  /// Optional: a small timing-only spec runnable on smoke_machine_config(),
  /// for registry-wide sweeps (fused-vs-baseline smoke tests, CI).
  std::function<OpSpec()> smoke_spec = nullptr;
  /// Structured rewrite metadata: the exact node-name sequence
  /// {producer, consumer} the graph rewrite pass matches. Empty = this op
  /// is not a fusion target.
  std::vector<std::string> pattern = {};
  /// Optional: canonical problem-size key for this op's config (e.g.
  /// "m=8192,k=8192"), used by fw::graph_fingerprint to build plan-cache
  /// keys. Ops without one still run; graphs containing them just plan
  /// uncached (the fingerprint is marked inexact).
  std::function<std::string(const OpSpec&)> shape_key = nullptr;
};

/// The factory of a fused/baseline operator pair, each constructed as
/// `Op(world, config, data)` from the spec's Config and (optional) Data*.
template <typename Config, typename Data, typename Fused, typename Baseline>
OpEntry::Factory pair_factory() {
  return [](shmem::World& world, const OpSpec& spec,
            Backend backend) -> std::unique_ptr<fused::FusedOp> {
    const auto& cfg = spec_config<Config>(spec);
    auto* data = spec_data<Data>(spec);
    if (backend == Backend::kFused) {
      return std::make_unique<Fused>(world, cfg, data);
    }
    return std::make_unique<Baseline>(world, cfg, data);
  };
}

class OpRegistry {
 public:
  /// The process-wide registry that operator TUs register into.
  static OpRegistry& global();

  void register_op(OpEntry entry);
  bool contains(const std::string& name) const;
  const OpEntry& at(const std::string& name) const;
  std::vector<std::string> names() const;

 private:
  std::map<std::string, OpEntry> ops_;
};

/// `static const OpRegistrar r{{...}};` in an operator's TU registers it
/// into the global registry before main().
struct OpRegistrar {
  explicit OpRegistrar(OpEntry entry) {
    OpRegistry::global().register_op(std::move(entry));
  }
};

}  // namespace fcc::fw
