#pragma once

#include <array>
#include <concepts>
#include <cstddef>
#include <type_traits>
#include <vector>

#include "core/codec/compressed_array.hpp"

/// Lazy expression-template front end over ops::lincomb.
///
/// Natural compressed-space arithmetic —
///
///     CompressedArray next = h - dt * (dudx + dvdy);
///     state += half_dt * rho_a + half_dt * rho_b;
///
/// — builds a LinExpr<N> whose N (operand*, weight) pairs are laid down at
/// compile time (std::array members, no heap, no virtual dispatch) and whose
/// eval() / implicit CompressedArray conversion flattens the whole tree into
/// ONE ops::lincomb call: one workspace pass over all operands, one terminal
/// rebin, zero intermediate CompressedArrays.  The equivalent chained
/// ops::add / ops::multiply_scalar sequence pays one rebin — the sole error
/// source of Table I addition — per binary op, so the expression layer is not
/// sugar: it compiles natural syntax into the strictly tighter one-rebin
/// pipeline.  Evaluation is bit-identical to the direct ops::lincomb call
/// with the same (operand, weight, bias) list (tests/test_ops_expr.cpp), so
/// the layer adds no error source of its own.
///
/// What fuses: operator+/-, scalar */÷, scalar bias, unary minus, and the
/// compound assignments += / -= (which append the target as a unit-weight
/// first operand and route through the same single-rebin path).  What does
/// not: a *pure* scaling like `2.0 * a` evaluated alone still runs one
/// lincomb — and therefore one rebin — whereas ops::multiply_scalar is exact
/// and rebin-free; keep calling multiply_scalar for bare rescales where
/// exactness matters.  Multiplying two compressed arrays element-wise is not
/// in the paper's algebra and has no operator here.
///
/// Lifetime: a LinExpr stores *pointers* to its operands.  Evaluating within
/// the same full expression that built it — the idiomatic
/// `CompressedArray r = a - dt * b;` or `f(a - b)` — is always safe,
/// including operands that are temporaries (they live to the end of the full
/// expression).  Storing an expression in a variable for later evaluation is
/// only safe when every operand outlives it; do not hold a LinExpr built
/// from temporaries across statements.
///
/// Everything lives in namespace pyblaz (not pyblaz::ops) so argument-
/// dependent lookup finds the operators wherever a CompressedArray is in
/// scope, without a using-directive.

namespace pyblaz {

template <std::size_t N>
class LinExpr;

namespace expr_detail {

/// The single audited exit from the lazy world: forwards the flattened
/// (operands, weights, bias) list to ops::lincomb.  Implemented in expr.cpp
/// so this header stays independent of ops.hpp.
CompressedArray eval_terms(const CompressedArray* const* operands,
                           const double* weights, std::size_t count,
                           double bias);

template <typename T>
inline constexpr bool is_lin_expr_v = false;
template <std::size_t N>
inline constexpr bool is_lin_expr_v<LinExpr<N>> = true;

}  // namespace expr_detail

/// A lazy linear combination Σ weights[i] * (*operands[i]) + bias.  The
/// arity N is part of the type: every operator below concatenates or rescales
/// these fixed-size arrays, so building an expression costs a few stores and
/// evaluation is exactly one ops::lincomb call.
template <std::size_t N>
class LinExpr {
  static_assert(N >= 1, "an expression has at least one operand");

 public:
  std::array<const CompressedArray*, N> operands{};
  std::array<double, N> weights{};
  double bias = 0.0;

  /// Flatten into one ops::lincomb call (one pass, one terminal rebin).
  CompressedArray eval() const {
    return expr_detail::eval_terms(operands.data(), weights.data(), N, bias);
  }

  /// Implicit evaluation, so an expression drops into any API that takes a
  /// CompressedArray: `ops::l2_norm(a - b)`, `compressor.decompress(...)`.
  operator CompressedArray() const { return eval(); }  // NOLINT(google-explicit-constructor)

  /// This expression with every weight (and the bias) multiplied by @p s.
  constexpr LinExpr scaled(double s) const {
    LinExpr out = *this;
    for (double& w : out.weights) w *= s;
    out.bias *= s;
    return out;
  }

  /// This expression with @p s added to the bias.
  constexpr LinExpr shifted(double s) const {
    LinExpr out = *this;
    out.bias += s;
    return out;
  }
};

/// A CompressedArray viewed as the unit-weight single-term expression.
inline LinExpr<1> as_expr(const CompressedArray& a) {
  return LinExpr<1>{{&a}, {1.0}, 0.0};
}
template <std::size_t N>
constexpr const LinExpr<N>& as_expr(const LinExpr<N>& e) {
  return e;
}

/// Either a CompressedArray or an already-built LinExpr: the operand set the
/// operators below accept (constrained so these templates never interfere
/// with overload resolution for unrelated types).
template <typename T>
concept LinExprOperand =
    std::same_as<std::remove_cvref_t<T>, CompressedArray> ||
    expr_detail::is_lin_expr_v<std::remove_cvref_t<T>>;

namespace expr_detail {

template <std::size_t N, std::size_t M>
constexpr LinExpr<N + M> concat(const LinExpr<N>& a, const LinExpr<M>& b,
                                double sign) {
  LinExpr<N + M> out;
  for (std::size_t i = 0; i < N; ++i) {
    out.operands[i] = a.operands[i];
    out.weights[i] = a.weights[i];
  }
  for (std::size_t j = 0; j < M; ++j) {
    out.operands[N + j] = b.operands[j];
    out.weights[N + j] = sign * b.weights[j];
  }
  out.bias = a.bias + sign * b.bias;
  return out;
}

}  // namespace expr_detail

// --- Combining operands: concatenation of term lists. ---

template <LinExprOperand A, LinExprOperand B>
constexpr auto operator+(const A& a, const B& b) {
  return expr_detail::concat(as_expr(a), as_expr(b), 1.0);
}

template <LinExprOperand A, LinExprOperand B>
constexpr auto operator-(const A& a, const B& b) {
  return expr_detail::concat(as_expr(a), as_expr(b), -1.0);
}

template <LinExprOperand A>
constexpr auto operator-(const A& a) {
  return as_expr(a).scaled(-1.0);
}

// --- Scalar scaling: folded into the decode weights, never a data pass. ---

template <LinExprOperand A>
constexpr auto operator*(const A& a, double s) {
  return as_expr(a).scaled(s);
}

template <LinExprOperand A>
constexpr auto operator*(double s, const A& a) {
  return as_expr(a).scaled(s);
}

template <LinExprOperand A>
constexpr auto operator/(const A& a, double s) {
  return as_expr(a).scaled(1.0 / s);
}

// --- Scalar bias: a DC shift in the terminal rebin (Algorithm 4 fused). ---

template <LinExprOperand A>
constexpr auto operator+(const A& a, double s) {
  return as_expr(a).shifted(s);
}

template <LinExprOperand A>
constexpr auto operator+(double s, const A& a) {
  return as_expr(a).shifted(s);
}

template <LinExprOperand A>
constexpr auto operator-(const A& a, double s) {
  return as_expr(a).shifted(-s);
}

template <LinExprOperand A>
constexpr auto operator-(double s, const A& a) {
  return as_expr(a).scaled(-1.0).shifted(s);
}

// --- Batched evaluation: K expressions, shared operands decoded once. ---

/// Collects LinExprs and evaluates them as ONE ops::lincomb_batch call: per
/// block, each *distinct* operand (deduplicated by pointer — expressions
/// share a decode only when they reference the same CompressedArray object)
/// is decoded once and fanned into every collected expression through the
/// lincomb kernel, each output finishing with its own terminal rebin.
/// Results are bit-identical to eval()ing each expression alone, in add()
/// order; a batch whose expressions share nothing stages no row and streams
/// every operand, as eval() does.
///
///     BatchEval batch;
///     batch.add(h - dt * (fx + fy));
///     batch.add(0.5 * h + 0.5 * g);
///     std::vector<CompressedArray> results = batch.eval();
///
/// Lifetime: like LinExpr, only operand *pointers* are stored — every operand
/// must stay alive until eval() returns.  Unlike a bare LinExpr, collected
/// expressions are held across statements by design, so never add()
/// expressions built from temporaries.
class BatchEval {
 public:
  /// Append one expression.  Returns *this so adds chain.
  template <std::size_t N>
  BatchEval& add(const LinExpr<N>& e) {
    Request req;
    req.operands.assign(e.operands.begin(), e.operands.end());
    req.weights.assign(e.weights.begin(), e.weights.end());
    req.bias = e.bias;
    requests_.push_back(std::move(req));
    return *this;
  }

  /// A bare array batches as its unit-weight single-term expression.
  BatchEval& add(const CompressedArray& a) { return add(as_expr(a)); }

  std::size_t size() const { return requests_.size(); }
  bool empty() const { return requests_.empty(); }

  /// Drop every collected expression (eval() does not clear).
  void clear() { requests_.clear(); }

  /// Evaluate all collected expressions in one batched pass; results[i]
  /// corresponds to the i-th add().  Implemented in expr.cpp so this header
  /// stays independent of ops.hpp.
  std::vector<CompressedArray> eval() const;

 private:
  struct Request {
    std::vector<const CompressedArray*> operands;
    std::vector<double> weights;
    double bias = 0.0;
  };
  std::vector<Request> requests_;
};

// --- Compound assignment: state updates through the same one-rebin path. ---

/// a <- a + expr, evaluated as the single fused lincomb {1·a} ∪ expr.  The
/// right-hand side may reference a itself; the combination is built into a
/// fresh array before the assignment replaces a.
template <LinExprOperand E>
CompressedArray& operator+=(CompressedArray& a, const E& e) {
  a = (a + e).eval();
  return a;
}

template <LinExprOperand E>
CompressedArray& operator-=(CompressedArray& a, const E& e) {
  a = (a - e).eval();
  return a;
}

}  // namespace pyblaz
