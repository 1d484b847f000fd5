// Base class for neural-network modules: parameter registration, recursive
// parameter collection, and checkpointing.
#ifndef URCL_NN_MODULE_H_
#define URCL_NN_MODULE_H_

#include <string>
#include <utility>
#include <vector>

#include "autograd/variable.h"

namespace urcl {
namespace nn {

using autograd::Variable;

class Module {
 public:
  virtual ~Module() = default;

  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  // All trainable parameters of this module and its registered children,
  // depth-first, in registration order.
  std::vector<Variable> Parameters() const;

  // Named view of Parameters() (names are dotted paths).
  std::vector<std::pair<std::string, Variable>> NamedParameters() const;

  int64_t NumParameters() const;

  // Checkpointing: value-only snapshots in Parameters() order.
  std::vector<Tensor> StateDict() const;
  void LoadStateDict(const std::vector<Tensor>& state);

 protected:
  Module() = default;

  // Creates a trainable leaf Variable and registers it.
  Variable RegisterParameter(std::string name, Tensor init);

  // Registers a child whose parameters are folded into this module's.
  // `child` must outlive this module (typically a data member).
  void RegisterChild(std::string name, Module* child);

 private:
  // Parameters() and NamedParameters() walk the same order; only the second
  // builds names.
  void Collect(std::vector<Variable>* out) const;
  void CollectNamed(const std::string& prefix,
                    std::vector<std::pair<std::string, Variable>>* out) const;

  std::vector<std::pair<std::string, Variable>> params_;
  std::vector<std::pair<std::string, Module*>> children_;
};

}  // namespace nn
}  // namespace urcl

#endif  // URCL_NN_MODULE_H_
