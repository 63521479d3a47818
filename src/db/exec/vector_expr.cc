#include "db/exec/vector_expr.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "db/exec/vector_kernels.h"

namespace dl2sql::db::vec {

std::unique_ptr<CompiledNum> CompileNum(const Expr& e,
                                        const ColumnResolver& resolve) {
  switch (e.kind) {
    case ExprKind::kLiteral: {
      auto out = std::make_unique<CompiledNum>();
      if (e.literal.type() == DataType::kInt64) {
        out->kind = CompiledNum::Kind::kImmInt;
        out->imm_i = e.literal.int_value();
        out->is_int = true;
        return out;
      }
      if (e.literal.type() == DataType::kFloat64) {
        out->kind = CompiledNum::Kind::kImmFloat;
        out->imm_f = e.literal.float_value();
        return out;
      }
      return nullptr;
    }
    case ExprKind::kColumnRef: {
      const Column* col = resolve(e);
      if (col == nullptr || col->HasNulls()) return nullptr;
      auto out = std::make_unique<CompiledNum>();
      out->col = col;
      if (col->type() == DataType::kInt64) {
        out->kind = CompiledNum::Kind::kColInt;
        out->is_int = true;
        return out;
      }
      if (col->type() == DataType::kFloat64) {
        out->kind = CompiledNum::Kind::kColFloat;
        return out;
      }
      return nullptr;
    }
    case ExprKind::kBinary: {
      switch (e.bin_op) {
        case BinaryOp::kAdd:
        case BinaryOp::kSub:
        case BinaryOp::kMul:
        case BinaryOp::kDiv:
        case BinaryOp::kMod:
          break;
        default:
          return nullptr;
      }
      auto l = CompileNum(*e.children[0], resolve);
      if (l == nullptr) return nullptr;
      auto r = CompileNum(*e.children[1], resolve);
      if (r == nullptr) return nullptr;
      auto out = std::make_unique<CompiledNum>();
      out->kind = CompiledNum::Kind::kBin;
      out->op = e.bin_op;
      out->is_int =
          e.bin_op != BinaryOp::kDiv && l->is_int && r->is_int;
      out->l = std::move(l);
      out->r = std::move(r);
      return out;
    }
    case ExprKind::kUnary: {
      if (e.un_op != UnaryOp::kNeg) return nullptr;
      auto x = CompileNum(*e.children[0], resolve);
      if (x == nullptr) return nullptr;
      auto out = std::make_unique<CompiledNum>();
      out->kind = CompiledNum::Kind::kNeg;
      out->is_int = x->is_int;
      out->l = std::move(x);
      return out;
    }
    default:
      return nullptr;
  }
}

Result<NumOperand> EvalNum(const CompiledNum& e, int64_t begin,
                           const SelIndex* sel, SelIndex count,
                           BatchArena* arena) {
  switch (e.kind) {
    case CompiledNum::Kind::kColInt:
      return NumOperand::DenseInt(e.col->ints().data() + begin);
    case CompiledNum::Kind::kColFloat:
      return NumOperand::DenseFloat(e.col->floats().data() + begin);
    case CompiledNum::Kind::kImmInt:
      return NumOperand::ImmInt(e.imm_i);
    case CompiledNum::Kind::kImmFloat:
      return NumOperand::ImmFloat(e.imm_f);
    case CompiledNum::Kind::kNeg: {
      DL2SQL_ASSIGN_OR_RETURN(NumOperand x,
                              EvalNum(*e.l, begin, sel, count, arena));
      if (e.is_int) {
        int64_t* out = arena->AcquireI64(count);
        NegInt(x, sel, count, out);
        return NumOperand::CompInt(out);
      }
      double* out = arena->AcquireF64(count);
      NegFloat(x, sel, count, out);
      return NumOperand::CompFloat(out);
    }
    case CompiledNum::Kind::kBin: {
      DL2SQL_ASSIGN_OR_RETURN(NumOperand a,
                              EvalNum(*e.l, begin, sel, count, arena));
      DL2SQL_ASSIGN_OR_RETURN(NumOperand b,
                              EvalNum(*e.r, begin, sel, count, arena));
      if (e.is_int) {
        int64_t* out = arena->AcquireI64(count);
        DL2SQL_RETURN_NOT_OK(ArithInt(e.op, a, b, sel, count, out));
        return NumOperand::CompInt(out);
      }
      double* out = arena->AcquireF64(count);
      DL2SQL_RETURN_NOT_OK(ArithFloat(e.op, a, b, sel, count, out));
      return NumOperand::CompFloat(out);
    }
  }
  return Status::InternalError("unhandled compiled numeric kind");
}

Status EvalNumInto(const CompiledNum& e, int64_t n, BatchArena* arena,
                   Column* out) {
  const SelIndex count = static_cast<SelIndex>(n);
  SelIndex* identity = arena->AcquireSel(count);
  std::iota(identity, identity + count, 0);
  DL2SQL_ASSIGN_OR_RETURN(NumOperand v, EvalNum(e, 0, identity, count, arena));
  // Under the identity selection, dense rows and compressed slots coincide.
  using K = NumOperand::Kind;
  if (e.is_int) {
    std::vector<int64_t>& o = out->mutable_ints();
    if (v.kind == K::kImmInt) {
      o.assign(static_cast<size_t>(n), v.imm_i);
    } else {
      o.assign(v.i64, v.i64 + n);
    }
  } else {
    std::vector<double>& o = out->mutable_floats();
    if (v.kind == K::kImmFloat) {
      o.assign(static_cast<size_t>(n), v.imm_f);
    } else {
      o.assign(v.f64, v.f64 + n);
    }
  }
  return Status::OK();
}

namespace {

using Wide = __int128;
struct WideBounds {
  Wide lo, hi;
};

std::optional<WideBounds> Bounds(const CompiledNum& e) {
  if (!e.is_int) return std::nullopt;
  std::optional<WideBounds> out;
  switch (e.kind) {
    case CompiledNum::Kind::kColInt: {
      const auto& v = e.col->ints();
      if (v.empty()) return std::nullopt;
      const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
      out = WideBounds{*lo, *hi};
      break;
    }
    case CompiledNum::Kind::kImmInt:
      out = WideBounds{e.imm_i, e.imm_i};
      break;
    case CompiledNum::Kind::kNeg: {
      const auto x = Bounds(*e.l);
      if (!x) return std::nullopt;
      out = WideBounds{-x->hi, -x->lo};
      break;
    }
    case CompiledNum::Kind::kBin: {
      const auto a = Bounds(*e.l);
      const auto b = a ? Bounds(*e.r) : std::nullopt;
      if (!b) return std::nullopt;
      switch (e.op) {
        case BinaryOp::kAdd:
          out = WideBounds{a->lo + b->lo, a->hi + b->hi};
          break;
        case BinaryOp::kSub:
          out = WideBounds{a->lo - b->hi, a->hi - b->lo};
          break;
        case BinaryOp::kMul: {
          const Wide p[] = {a->lo * b->lo, a->lo * b->hi, a->hi * b->lo,
                            a->hi * b->hi};
          out = WideBounds{*std::min_element(p, p + 4),
                           *std::max_element(p, p + 4)};
          break;
        }
        case BinaryOp::kMod: {
          // |a % b| < |b| and |a % b| <= |a|; the sign is a's (or zero).
          auto abs = [](Wide x) { return x < 0 ? -x : x; };
          const Wide b_max = std::max(abs(b->lo), abs(b->hi));
          const Wide lim = std::min(std::max<Wide>(b_max - 1, 0),
                                    std::max(abs(a->lo), abs(a->hi)));
          out = WideBounds{a->lo < 0 ? -lim : 0, a->hi > 0 ? lim : 0};
          break;
        }
        default:
          return std::nullopt;
      }
      break;
    }
    default:
      return std::nullopt;
  }
  constexpr Wide kMin = std::numeric_limits<int64_t>::min();
  constexpr Wide kMax = std::numeric_limits<int64_t>::max();
  if (out->lo < kMin || out->hi > kMax) return std::nullopt;
  return out;
}

}  // namespace

std::optional<std::pair<int64_t, int64_t>> IntBounds(const CompiledNum& e) {
  const auto b = Bounds(e);
  if (!b) return std::nullopt;
  return std::make_pair(static_cast<int64_t>(b->lo),
                        static_cast<int64_t>(b->hi));
}

}  // namespace dl2sql::db::vec
