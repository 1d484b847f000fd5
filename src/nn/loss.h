// Loss functions: the MAE task loss (Eq. 28), MSE, cosine similarity with
// stop-gradient (Eq. 13), and the symmetric GraphCL/InfoNCE loss (Eq. 14-16).
#ifndef URCL_NN_LOSS_H_
#define URCL_NN_LOSS_H_

#include "autograd/variable.h"

namespace urcl {
namespace nn {

using autograd::Variable;

// Mean absolute error (paper Eq. 28). Shapes must match.
Variable MaeLoss(const Variable& prediction, const Variable& target);

// Mean squared error.
Variable MseLoss(const Variable& prediction, const Variable& target);

// L2-normalizes the last axis: v / sqrt(||v||_2^2 + eps^2). The eps sits
// inside the sqrt so the backward stays finite for all-zero rows.
Variable L2Normalize(const Variable& v, float eps = 1e-8f);

// Row-wise cosine similarity between [S, D] matrices -> [S].
Variable CosineSimilarityRows(const Variable& a, const Variable& b, float eps = 1e-8f);

// Symmetric GraphCL loss over a minibatch of S augmented pairs (Eq. 15-16).
//   projections p1, p2: projector outputs for view 1 / view 2 (grad flows)
//   embeddings  z1, z2: encoder outputs (stop-gradient applied internally,
//                       per the SimSiam SG(.) operator of Eq. 13)
// All inputs are [S, D]. When S == 1 the InfoNCE denominator is empty; the
// loss degenerates to the negative symmetric cosine similarity (SimSiam).
Variable GraphClLoss(const Variable& p1, const Variable& p2, const Variable& z1,
                     const Variable& z2, float temperature);

}  // namespace nn
}  // namespace urcl

#endif  // URCL_NN_LOSS_H_
