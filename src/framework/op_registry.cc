#include "framework/op_registry.h"

#include <sstream>
#include <stdexcept>

#include "common/check.h"

namespace fcc::fw {

namespace detail {

std::string spec_type_error_msg(const std::string& op, const char* slot,
                                const char* held, const char* expected) {
  std::ostringstream os;
  os << "op '" << op << "': spec " << slot << " holds '" << held
     << "' but the factory expects '" << expected << "'";
  return os.str();
}

}  // namespace detail

OpRegistry& OpRegistry::global() {
  static OpRegistry registry;
  return registry;
}

void OpRegistry::register_op(OpEntry entry) {
  FCC_CHECK_MSG(!entry.name.empty(), "op needs a name");
  FCC_CHECK_MSG(entry.make != nullptr, "op needs a factory: " << entry.name);
  FCC_CHECK_MSG(ops_.find(entry.name) == ops_.end(),
                "duplicate op registration: " << entry.name);
  ops_.emplace(entry.name, std::move(entry));
}

bool OpRegistry::contains(const std::string& name) const {
  return ops_.find(name) != ops_.end();
}

const OpEntry& OpRegistry::at(const std::string& name) const {
  auto it = ops_.find(name);
  if (it == ops_.end()) {
    // Spell out what *is* registered: a typo'd or unregistered name is the
    // most common dispatch failure, and the fix is usually in this list.
    std::ostringstream os;
    os << "unknown op: '" << name << "'; registered ops: [";
    bool first = true;
    for (const auto& kv : ops_) {  // std::map: already sorted by name
      os << (first ? "" : ", ") << kv.first;
      first = false;
    }
    os << "]";
    throw std::logic_error(os.str());
  }
  return it->second;
}

std::vector<std::string> OpRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(ops_.size());
  for (const auto& [k, v] : ops_) out.push_back(k);
  return out;
}

}  // namespace fcc::fw
