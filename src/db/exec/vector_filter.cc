#include "db/exec/vector_filter.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "accel/thread_pool.h"
#include "common/trace.h"
#include "db/exec/vector_batch.h"
#include "db/exec/vector_expr.h"
#include "db/exec/vector_kernels.h"

namespace dl2sql::db::vec {

namespace {

// ------------------------------------------------------------- compile ----

struct CompiledPred {
  enum class Kind : uint8_t {
    kAnd,
    kOr,
    kNot,
    kCmpNum,
    kCmpStr,
    kBoolCol,
    kConst,
  };
  Kind kind = Kind::kConst;
  BinaryOp cmp = BinaryOp::kEq;
  std::unique_ptr<CompiledNum> a, b;       // kCmpNum
  const Column* str_col_a = nullptr;       // kCmpStr operands: column xor
  const Column* str_col_b = nullptr;       // immediate
  std::string str_imm_a, str_imm_b;
  bool a_is_imm = false, b_is_imm = false;
  const Column* bool_col = nullptr;        // kBoolCol
  bool const_value = false;                // kConst
  std::unique_ptr<CompiledPred> l, r;      // kAnd/kOr; kNot uses l
};

const Column* ResolveColumn(const Expr& e, const Table& input) {
  int idx = e.bound_index;
  if (idx < 0) {
    auto found = input.schema().Find(e.column_name);
    if (!found.ok()) return nullptr;
    idx = *found;
  }
  if (idx < 0 || idx >= input.num_columns()) return nullptr;
  return &input.column(idx);
}

/// Compiles a string operand: a no-null STRING column or a string literal.
/// BLOB columns fall back, mirroring FastStringCompare's gate.
bool CompileStrOperand(const Expr& e, const Table& input, const Column** col,
                       std::string* imm, bool* is_imm) {
  if (e.kind == ExprKind::kLiteral && e.literal.type() == DataType::kString) {
    *imm = e.literal.string_value();
    *is_imm = true;
    return true;
  }
  if (e.kind == ExprKind::kColumnRef) {
    const Column* c = ResolveColumn(e, input);
    if (c != nullptr && c->type() == DataType::kString && !c->HasNulls()) {
      *col = c;
      *is_imm = false;
      return true;
    }
  }
  return false;
}

std::unique_ptr<CompiledPred> CompilePred(const Expr& e, const Table& input) {
  switch (e.kind) {
    case ExprKind::kLiteral: {
      if (e.literal.type() != DataType::kBool) return nullptr;
      auto out = std::make_unique<CompiledPred>();
      out->kind = CompiledPred::Kind::kConst;
      out->const_value = e.literal.bool_value();
      return out;
    }
    case ExprKind::kColumnRef: {
      const Column* col = ResolveColumn(e, input);
      if (col == nullptr || col->type() != DataType::kBool || col->HasNulls()) {
        return nullptr;
      }
      auto out = std::make_unique<CompiledPred>();
      out->kind = CompiledPred::Kind::kBoolCol;
      out->bool_col = col;
      return out;
    }
    case ExprKind::kUnary: {
      if (e.un_op != UnaryOp::kNot) return nullptr;
      auto child = CompilePred(*e.children[0], input);
      if (child == nullptr) return nullptr;
      auto out = std::make_unique<CompiledPred>();
      out->kind = CompiledPred::Kind::kNot;
      out->l = std::move(child);
      return out;
    }
    case ExprKind::kBinary: {
      if (e.bin_op == BinaryOp::kAnd || e.bin_op == BinaryOp::kOr) {
        auto l = CompilePred(*e.children[0], input);
        if (l == nullptr) return nullptr;
        auto r = CompilePred(*e.children[1], input);
        if (r == nullptr) return nullptr;
        auto out = std::make_unique<CompiledPred>();
        out->kind = e.bin_op == BinaryOp::kAnd ? CompiledPred::Kind::kAnd
                                               : CompiledPred::Kind::kOr;
        out->l = std::move(l);
        out->r = std::move(r);
        return out;
      }
      if (!IsComparison(e.bin_op)) return nullptr;
      // Numeric comparison?
      const ColumnResolver resolve = [&input](const Expr& c) {
        return ResolveColumn(c, input);
      };
      auto a = CompileNum(*e.children[0], resolve);
      if (a != nullptr) {
        auto b = CompileNum(*e.children[1], resolve);
        if (b == nullptr) return nullptr;
        auto out = std::make_unique<CompiledPred>();
        out->kind = CompiledPred::Kind::kCmpNum;
        out->cmp = e.bin_op;
        out->a = std::move(a);
        out->b = std::move(b);
        return out;
      }
      // String comparison?
      auto out = std::make_unique<CompiledPred>();
      if (!CompileStrOperand(*e.children[0], input, &out->str_col_a,
                             &out->str_imm_a, &out->a_is_imm) ||
          !CompileStrOperand(*e.children[1], input, &out->str_col_b,
                             &out->str_imm_b, &out->b_is_imm)) {
        return nullptr;
      }
      out->kind = CompiledPred::Kind::kCmpStr;
      out->cmp = e.bin_op;
      return out;
    }
    default:
      return nullptr;
  }
}

// ---------------------------------------------------------- batch eval ----

Result<SelIndex> RefinePred(const CompiledPred& p, int64_t begin,
                            const SelIndex* sel, SelIndex count,
                            SelIndex* out, BatchArena* arena) {
  switch (p.kind) {
    case CompiledPred::Kind::kCmpNum: {
      DL2SQL_ASSIGN_OR_RETURN(NumOperand a,
                              EvalNum(*p.a, begin, sel, count, arena));
      DL2SQL_ASSIGN_OR_RETURN(NumOperand b,
                              EvalNum(*p.b, begin, sel, count, arena));
      return RefineCompareNum(p.cmp, a, b, sel, count, out);
    }
    case CompiledPred::Kind::kCmpStr: {
      StrOperand a, b;
      if (p.a_is_imm) {
        a.imm = &p.str_imm_a;
      } else {
        a.base = p.str_col_a->strings().data() + begin;
      }
      if (p.b_is_imm) {
        b.imm = &p.str_imm_b;
      } else {
        b.base = p.str_col_b->strings().data() + begin;
      }
      return RefineCompareStr(p.cmp, a, b, sel, count, out);
    }
    case CompiledPred::Kind::kBoolCol:
      return RefineBool(p.bool_col->bools().data() + begin, true, sel, count,
                        out);
    case CompiledPred::Kind::kConst:
      if (!p.const_value) return 0;
      std::copy(sel, sel + count, out);
      return count;
    case CompiledPred::Kind::kAnd: {
      SelIndex* tmp = arena->AcquireSel(count);
      DL2SQL_ASSIGN_OR_RETURN(SelIndex m,
                              RefinePred(*p.l, begin, sel, count, tmp, arena));
      return RefinePred(*p.r, begin, tmp, m, out, arena);
    }
    case CompiledPred::Kind::kOr: {
      SelIndex* t1 = arena->AcquireSel(count);
      SelIndex* t2 = arena->AcquireSel(count);
      DL2SQL_ASSIGN_OR_RETURN(SelIndex m1,
                              RefinePred(*p.l, begin, sel, count, t1, arena));
      DL2SQL_ASSIGN_OR_RETURN(SelIndex m2,
                              RefinePred(*p.r, begin, sel, count, t2, arena));
      return SelUnion(t1, m1, t2, m2, out);
    }
    case CompiledPred::Kind::kNot: {
      // Exact 2VL complement: refine the child, then subtract. Avoids
      // negated-comparison rewrites, which would diverge from the row path
      // on NaN operands.
      SelIndex* tmp = arena->AcquireSel(count);
      DL2SQL_ASSIGN_OR_RETURN(SelIndex m,
                              RefinePred(*p.l, begin, sel, count, tmp, arena));
      return SelDifference(sel, count, tmp, m, out);
    }
  }
  return Status::InternalError("unhandled compiled predicate kind");
}

}  // namespace

bool IsVectorizablePredicate(const Expr& predicate, const Table& input) {
  return CompilePred(predicate, input) != nullptr;
}

Result<bool> TryVectorFilter(const Expr& predicate, const Table& input,
                             EvalContext* ctx,
                             std::vector<int64_t>* out_rows) {
  const std::unique_ptr<CompiledPred> compiled = CompilePred(predicate, input);
  if (compiled == nullptr) return false;

  DL2SQL_TRACE_SPAN("vector", "filter");
  const int64_t n = input.num_rows();
  const int64_t m = ctx != nullptr && ctx->morsel_size > 0
                        ? ctx->morsel_size
                        : ThreadPool::kDefaultMorselSize;
  const int64_t num_morsels = n == 0 ? 0 : (n + m - 1) / m;
  std::vector<std::vector<int64_t>> parts(static_cast<size_t>(num_morsels));
  const int workers =
      ctx != nullptr && ctx->pool != nullptr ? ctx->pool->num_threads() : 1;
  // One arena per worker: buffers are recycled across that worker's
  // morsels, so steady state allocates nothing inside the loop.
  std::vector<BatchArena> arenas(static_cast<size_t>(std::max(1, workers)));

  auto body = [&](int64_t bgn, int64_t end, int worker) -> Status {
    BatchArena& arena = arenas[static_cast<size_t>(worker)];
    arena.Reset();
    const SelIndex rows = static_cast<SelIndex>(end - bgn);
    SelIndex* identity = arena.AcquireSel(rows);
    for (SelIndex i = 0; i < rows; ++i) identity[i] = i;
    SelIndex* survivors = arena.AcquireSel(rows);
    DL2SQL_ASSIGN_OR_RETURN(
        SelIndex count,
        RefinePred(*compiled, bgn, identity, rows, survivors, &arena));
    auto& part = parts[static_cast<size_t>(bgn / m)];
    part.reserve(static_cast<size_t>(count));
    for (SelIndex k = 0; k < count; ++k) {
      part.push_back(bgn + survivors[k]);
    }
    return Status::OK();
  };
  // Mirror ForEachMorsel: any wired pool runs the morsel loop (it degrades
  // to inline serial execution for single-threaded pools and single-morsel
  // inputs), so pool accounting and trace spans match the row path.
  if (ctx != nullptr && ctx->pool != nullptr) {
    DL2SQL_RETURN_NOT_OK(ctx->pool->ParallelForMorsel(n, m, body));
  } else {
    for (int64_t b = 0; b < n; b += m) {
      DL2SQL_RETURN_NOT_OK(body(b, std::min(n, b + m), 0));
    }
  }

  size_t total = 0;
  for (const auto& p : parts) total += p.size();
  out_rows->clear();
  out_rows->reserve(total);
  for (const auto& p : parts) {
    out_rows->insert(out_rows->end(), p.begin(), p.end());
  }
  if (ctx != nullptr) {
    ctx->vec_batches += num_morsels;
    ctx->vec_rows_in += n;
    ctx->vec_rows_selected += static_cast<int64_t>(total);
  }
  return true;
}

}  // namespace dl2sql::db::vec
