#include "nn/module.h"

#include "common/check.h"

namespace urcl {
namespace nn {

std::vector<Variable> Module::Parameters() const {
  std::vector<Variable> out;
  Collect(&out);
  return out;
}

void Module::Collect(std::vector<Variable>* out) const {
  for (const auto& [name, variable] : params_) out->push_back(variable);
  for (const auto& [name, child] : children_) child->Collect(out);
}

std::vector<std::pair<std::string, Variable>> Module::NamedParameters() const {
  std::vector<std::pair<std::string, Variable>> out;
  CollectNamed("", &out);
  return out;
}

void Module::CollectNamed(const std::string& prefix,
                          std::vector<std::pair<std::string, Variable>>* out) const {
  for (const auto& [name, variable] : params_) {
    out->emplace_back(prefix.empty() ? name : prefix + "." + name, variable);
  }
  for (const auto& [name, child] : children_) {
    child->CollectNamed(prefix.empty() ? name : prefix + "." + name, out);
  }
}

int64_t Module::NumParameters() const {
  int64_t total = 0;
  for (const Variable& p : Parameters()) total += p.value().NumElements();
  return total;
}

std::vector<Tensor> Module::StateDict() const {
  std::vector<Tensor> state;
  for (const Variable& p : Parameters()) state.push_back(p.value().Clone());
  return state;
}

void Module::LoadStateDict(const std::vector<Tensor>& state) {
  const std::vector<Variable> params = Parameters();
  URCL_CHECK_EQ(params.size(), state.size()) << "state dict size mismatch";
  for (size_t i = 0; i < params.size(); ++i) params[i].SetValue(state[i]);
}

Variable Module::RegisterParameter(std::string name, Tensor init) {
  Variable parameter(std::move(init), /*requires_grad=*/true);
  params_.emplace_back(std::move(name), parameter);
  return parameter;
}

void Module::RegisterChild(std::string name, Module* child) {
  URCL_CHECK(child != nullptr);
  children_.emplace_back(std::move(name), child);
}

}  // namespace nn
}  // namespace urcl
