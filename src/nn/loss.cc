#include "nn/loss.h"

#include "autograd/ops.h"
#include "common/check.h"
#include "tensor/tensor_ops.h"

namespace urcl {
namespace nn {

namespace ag = ::urcl::autograd;

Variable MaeLoss(const Variable& prediction, const Variable& target) {
  URCL_CHECK(prediction.shape() == target.shape())
      << "MaeLoss shape mismatch: " << prediction.shape().ToString() << " vs "
      << target.shape().ToString();
  return ag::Mean(ag::Abs(ag::Sub(prediction, target)));
}

Variable MseLoss(const Variable& prediction, const Variable& target) {
  URCL_CHECK(prediction.shape() == target.shape())
      << "MseLoss shape mismatch: " << prediction.shape().ToString() << " vs "
      << target.shape().ToString();
  return ag::Mean(ag::Square(ag::Sub(prediction, target)));
}

Variable L2Normalize(const Variable& v, float eps) {
  // The eps lives INSIDE the sqrt: d/dx sqrt(x) is infinite at x = 0, and an
  // all-zero row (a dead-ReLU projector output) hits exactly that, turning a
  // finite loss into NaN gradients on everything upstream. sqrt(||v||^2 +
  // eps^2) keeps the backward finite and is ~||v|| + eps for tiny norms.
  Variable norm =
      ag::Sqrt(ag::AddScalar(ag::Sum(ag::Square(v), {-1}, /*keepdims=*/true), eps * eps));
  return ag::Div(v, norm);
}

Variable CosineSimilarityRows(const Variable& a, const Variable& b, float eps) {
  URCL_CHECK(a.shape() == b.shape());
  URCL_CHECK_EQ(a.shape().rank(), 2);
  Variable na = L2Normalize(a, eps);
  Variable nb = L2Normalize(b, eps);
  return ag::Sum(ag::Mul(na, nb), {-1});
}

Variable GraphClLoss(const Variable& p1, const Variable& p2, const Variable& z1,
                     const Variable& z2, float temperature) {
  URCL_CHECK_EQ(p1.shape().rank(), 2) << "GraphClLoss expects [S, D] inputs";
  URCL_CHECK(p1.shape() == p2.shape() && z1.shape() == z2.shape() && p1.shape() == z1.shape());
  URCL_CHECK_GT(temperature, 0.0f);
  const int64_t batch = p1.shape().dim(0);

  // Stop-gradient on the target (encoder) branch, per SimSiam Eq. 13.
  Variable sz1 = ag::StopGradient(z1);
  Variable sz2 = ag::StopGradient(z2);

  Variable np1 = L2Normalize(p1);
  Variable np2 = L2Normalize(p2);
  Variable nz1 = L2Normalize(sz1);
  Variable nz2 = L2Normalize(sz2);

  if (batch < 2) {
    // Degenerate minibatch: the InfoNCE denominator (s' != s) is empty.
    // Fall back to the SimSiam negative symmetric cosine similarity.
    Variable sim = ag::Add(CosineSimilarityRows(np1, nz2), CosineSimilarityRows(np2, nz1));
    return ag::Mean(ag::MulScalar(sim, -0.5f));
  }

  // Pairwise symmetric similarities (Eq. 15): sym[s, s'] =
  //   1/2 C(p_{s,1}, z_{s',2}) + 1/2 C(p_{s,2}, z_{s',1}).
  Variable s12 = ag::MatMul(np1, ag::Transpose(nz2, {1, 0}));
  Variable s21 = ag::MatMul(np2, ag::Transpose(nz1, {1, 0}));
  Variable sym = ag::MulScalar(ag::Add(s12, s21), 0.5f / temperature);

  // Diagonal = positive pairs; off-diagonal = negatives.
  const Tensor eye = Tensor::Eye(batch);
  Variable eye_mask(eye, /*requires_grad=*/false);
  Variable off_mask(ops::AddScalar(ops::Neg(eye), 1.0f), /*requires_grad=*/false);

  Variable positives = ag::Sum(ag::Mul(sym, eye_mask), {-1});  // [S]
  Variable negative_mass =
      ag::Log(ag::Sum(ag::Mul(ag::Exp(sym), off_mask), {-1}));  // [S]
  return ag::Mean(ag::Sub(negative_mass, positives));
}

}  // namespace nn
}  // namespace urcl
