#include "db/eval.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "accel/thread_pool.h"
#include "common/cache.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "common/trace.h"
#include "db/exec/vector_filter.h"

namespace dl2sql::db {

namespace {

// ------------------------------------------------------ nUDF result cache ----

/// Appends a collision-free encoding of one nUDF argument to the key buffer
/// (same layout idea as row_key.h, but over Values: 1 type byte + payload).
void AppendValueKeyPart(const Value& v, std::string* out) {
  switch (v.type()) {
    case DataType::kNull:
      out->push_back('\x00');
      return;
    case DataType::kBool:
      out->push_back('\x01');
      out->push_back(v.bool_value() ? '\x01' : '\x00');
      return;
    case DataType::kInt64: {
      out->push_back('\x02');
      const int64_t i = v.int_value();
      out->append(reinterpret_cast<const char*>(&i), sizeof(i));
      return;
    }
    case DataType::kFloat64: {
      out->push_back('\x03');
      const double d = v.float_value();
      out->append(reinterpret_cast<const char*>(&d), sizeof(d));
      return;
    }
    case DataType::kString:
    case DataType::kBlob: {
      out->push_back(v.type() == DataType::kString ? '\x04' : '\x05');
      const std::string& s = v.string_value();
      const uint32_t len = static_cast<uint32_t>(s.size());
      out->append(reinterpret_cast<const char*>(&len), sizeof(len));
      out->append(s);
      return;
    }
  }
}

/// Cache key of one invocation: model fingerprint x serialized argument row.
/// `buf` is reused across rows to avoid per-row allocations.
uint64_t NudfRowKey(uint64_t fingerprint, const std::vector<Value>& row,
                    std::string* buf) {
  buf->clear();
  for (const Value& v : row) AppendValueKeyPart(v, buf);
  return HashCombine(fingerprint, Hash64(*buf));
}

/// Approximate heap footprint of a memoized result Value.
size_t ValueCacheCharge(const Value& v) {
  size_t charge = sizeof(Value) + 2 * sizeof(void*);  // entry bookkeeping
  if (v.type() == DataType::kString || v.type() == DataType::kBlob) {
    charge += v.string_value().size();
  }
  return charge;
}

/// Memoization applies only to neural bodies that declared a model
/// fingerprint (pure functions of their arguments); fingerprint 0 keeps
/// stateful or hand-registered bodies on the uncached path.
bool NudfCacheActive(const ScalarUdf* udf, const EvalContext* ctx) {
  return ctx != nullptr && ctx->nudf_cache != nullptr && udf->is_neural &&
         udf->neural.fingerprint != 0;
}

int64_t MorselSizeOf(const EvalContext* ctx) {
  return ctx != nullptr && ctx->morsel_size > 0 ? ctx->morsel_size
                                                : ThreadPool::kDefaultMorselSize;
}

/// Runs `fn` over [0, n) in morsels, on the context's pool when one is wired.
/// Morsel boundaries are identical with and without a pool, so kernels that
/// keep per-morsel output buffers produce bit-identical results in both modes.
Status ForEachMorsel(EvalContext* ctx, int64_t n, const ThreadPool::MorselFn& fn) {
  const int64_t m = MorselSizeOf(ctx);
  if (ctx != nullptr && ctx->pool != nullptr) {
    return ctx->pool->ParallelForMorsel(n, m, fn);
  }
  for (int64_t b = 0; b < n; b += m) {
    DL2SQL_RETURN_NOT_OK(fn(b, std::min(n, b + m), 0));
  }
  return Status::OK();
}

ColumnHandle Own(Column c) {
  return std::make_shared<const Column>(std::move(c));
}

/// Non-owning alias to a column that outlives the evaluation.
ColumnHandle Alias(const Column& c) {
  return ColumnHandle(std::shared_ptr<const void>(), &c);
}

/// A column of `n` copies of `v`, filled in one step per type.
Column BroadcastValue(const Value& v, int64_t n) {
  const size_t len = static_cast<size_t>(n);
  switch (v.type()) {
    case DataType::kBool:
      return Column::Bools(std::vector<uint8_t>(len, v.bool_value() ? 1 : 0));
    case DataType::kInt64:
      return Column::Ints(std::vector<int64_t>(len, v.int_value()));
    case DataType::kFloat64:
      return Column::Floats(std::vector<double>(len, v.float_value()));
    case DataType::kString:
      return Column::Strings(std::vector<std::string>(len, v.string_value()));
    case DataType::kBlob:
      return Column::Blobs(std::vector<std::string>(len, v.string_value()));
    case DataType::kNull:
      break;
  }
  // NULL: an all-invalid FLOAT64 column (an arbitrary carrier type).
  Column c = Column::Floats(std::vector<double>(len, 0.0));
  if (n > 0) c.SetValidity(std::vector<uint8_t>(len, 0));
  return c;
}

bool BothNumericNoNulls(const Column& a, const Column& b) {
  return IsNumeric(a.type()) && IsNumeric(b.type()) && !a.HasNulls() &&
         !b.HasNulls();
}

/// Reads a numeric column element as double without Value boxing.
inline double NumAt(const Column& c, int64_t i) {
  return c.type() == DataType::kInt64
             ? static_cast<double>(c.ints()[static_cast<size_t>(i)])
             : c.floats()[static_cast<size_t>(i)];
}

}  // namespace

Result<Value> EvalValueBinary(BinaryOp op, const Value& l, const Value& r) {
  // Logical connectives use three-valued logic.
  if (op == BinaryOp::kAnd || op == BinaryOp::kOr) {
    auto as_tri = [](const Value& v) -> Result<int> {
      if (v.is_null()) return -1;
      if (v.type() != DataType::kBool) {
        return Status::TypeError("logical operand must be BOOL, got ",
                                 DataTypeToString(v.type()));
      }
      return v.bool_value() ? 1 : 0;
    };
    DL2SQL_ASSIGN_OR_RETURN(int a, as_tri(l));
    DL2SQL_ASSIGN_OR_RETURN(int b, as_tri(r));
    if (op == BinaryOp::kAnd) {
      if (a == 0 || b == 0) return Value::Bool(false);
      if (a == -1 || b == -1) return Value::Null();
      return Value::Bool(true);
    }
    if (a == 1 || b == 1) return Value::Bool(true);
    if (a == -1 || b == -1) return Value::Null();
    return Value::Bool(false);
  }

  if (l.is_null() || r.is_null()) return Value::Null();

  if (IsComparison(op)) {
    const int c = l.Compare(r);
    switch (op) {
      case BinaryOp::kEq:
        return Value::Bool(c == 0);
      case BinaryOp::kNe:
        return Value::Bool(c != 0);
      case BinaryOp::kLt:
        return Value::Bool(c < 0);
      case BinaryOp::kLe:
        return Value::Bool(c <= 0);
      case BinaryOp::kGt:
        return Value::Bool(c > 0);
      case BinaryOp::kGe:
        return Value::Bool(c >= 0);
      default:
        break;
    }
  }

  // Arithmetic.
  if (op == BinaryOp::kMod) {
    DL2SQL_ASSIGN_OR_RETURN(int64_t a, l.AsInt());
    DL2SQL_ASSIGN_OR_RETURN(int64_t b, r.AsInt());
    if (b == 0) return Status::InvalidArgument("modulo by zero");
    // x % -1 is 0; computing INT64_MIN % -1 traps on x86.
    return Value::Int(b == -1 ? 0 : a % b);
  }
  if (op == BinaryOp::kDiv) {
    DL2SQL_ASSIGN_OR_RETURN(double a, l.AsDouble());
    DL2SQL_ASSIGN_OR_RETURN(double b, r.AsDouble());
    // ClickHouse semantics: division always yields a float; x/0 -> inf.
    return Value::Float(a / b);
  }
  const bool both_int =
      l.type() == DataType::kInt64 && r.type() == DataType::kInt64;
  if (both_int) {
    const int64_t a = l.int_value();
    const int64_t b = r.int_value();
    switch (op) {
      case BinaryOp::kAdd:
        return Value::Int(a + b);
      case BinaryOp::kSub:
        return Value::Int(a - b);
      case BinaryOp::kMul:
        return Value::Int(a * b);
      default:
        break;
    }
  }
  DL2SQL_ASSIGN_OR_RETURN(double a, l.AsDouble());
  DL2SQL_ASSIGN_OR_RETURN(double b, r.AsDouble());
  switch (op) {
    case BinaryOp::kAdd:
      return Value::Float(a + b);
    case BinaryOp::kSub:
      return Value::Float(a - b);
    case BinaryOp::kMul:
      return Value::Float(a * b);
    default:
      break;
  }
  return Status::InternalError("unhandled binary op");
}

namespace {

/// Vectorized arithmetic/comparison fast path for null-free numeric columns.
/// All branches write disjoint slots of a preallocated output vector, so the
/// morsel loop parallelizes without synchronization.
Result<ColumnHandle> FastBinary(BinaryOp op, const Column& a, const Column& b,
                                EvalContext* ctx) {
  const int64_t n = a.size();
  if (IsComparison(op)) {
    std::vector<uint8_t> out(static_cast<size_t>(n));
    DL2SQL_RETURN_NOT_OK(
        ForEachMorsel(ctx, n, [&](int64_t bgn, int64_t end, int) {
          for (int64_t i = bgn; i < end; ++i) {
            const double x = NumAt(a, i);
            const double y = NumAt(b, i);
            bool v = false;
            switch (op) {
              case BinaryOp::kEq:
                v = x == y;
                break;
              case BinaryOp::kNe:
                v = x != y;
                break;
              case BinaryOp::kLt:
                v = x < y;
                break;
              case BinaryOp::kLe:
                v = x <= y;
                break;
              case BinaryOp::kGt:
                v = x > y;
                break;
              case BinaryOp::kGe:
                v = x >= y;
                break;
              default:
                break;
            }
            out[static_cast<size_t>(i)] = v ? 1 : 0;
          }
          return Status::OK();
        }));
    return Own(Column::Bools(std::move(out)));
  }
  const bool both_int = a.type() == DataType::kInt64 &&
                        b.type() == DataType::kInt64 && op != BinaryOp::kDiv;
  if (both_int) {
    std::vector<int64_t> out(static_cast<size_t>(n));
    const auto& xa = a.ints();
    const auto& xb = b.ints();
    DL2SQL_RETURN_NOT_OK(
        ForEachMorsel(ctx, n, [&](int64_t bgn, int64_t end, int) -> Status {
          switch (op) {
            case BinaryOp::kAdd:
              for (int64_t i = bgn; i < end; ++i) out[i] = xa[i] + xb[i];
              break;
            case BinaryOp::kSub:
              for (int64_t i = bgn; i < end; ++i) out[i] = xa[i] - xb[i];
              break;
            case BinaryOp::kMul:
              for (int64_t i = bgn; i < end; ++i) out[i] = xa[i] * xb[i];
              break;
            case BinaryOp::kMod:
              for (int64_t i = bgn; i < end; ++i) {
                if (xb[i] == 0) return Status::InvalidArgument("modulo by zero");
                out[i] = xb[i] == -1 ? 0 : xa[i] % xb[i];
              }
              break;
            default:
              return Status::InternalError("unhandled int binary op");
          }
          return Status::OK();
        }));
    return Own(Column::Ints(std::move(out)));
  }
  std::vector<double> out(static_cast<size_t>(n));
  // Operand types and the operator are dispatched once per morsel; each
  // combination runs its own tight loop (operands read through double).
  auto run = [&](int64_t bgn, int64_t end, auto x_at, auto y_at) -> Status {
    double* o = out.data();
    switch (op) {
      case BinaryOp::kAdd:
        for (int64_t i = bgn; i < end; ++i) o[i] = x_at(i) + y_at(i);
        return Status::OK();
      case BinaryOp::kSub:
        for (int64_t i = bgn; i < end; ++i) o[i] = x_at(i) - y_at(i);
        return Status::OK();
      case BinaryOp::kMul:
        for (int64_t i = bgn; i < end; ++i) o[i] = x_at(i) * y_at(i);
        return Status::OK();
      case BinaryOp::kDiv:
        for (int64_t i = bgn; i < end; ++i) o[i] = x_at(i) / y_at(i);
        return Status::OK();
      case BinaryOp::kMod:
        for (int64_t i = bgn; i < end; ++i) o[i] = std::fmod(x_at(i), y_at(i));
        return Status::OK();
      default:
        return Status::InternalError("unhandled float binary op");
    }
  };
  const bool a_int = a.type() == DataType::kInt64;
  const bool b_int = b.type() == DataType::kInt64;
  const int64_t* ia = a_int ? a.ints().data() : nullptr;
  const int64_t* ib = b_int ? b.ints().data() : nullptr;
  const double* fa = a_int ? nullptr : a.floats().data();
  const double* fb = b_int ? nullptr : b.floats().data();
  auto from_int = [](const int64_t* v) {
    return [v](int64_t i) { return static_cast<double>(v[i]); };
  };
  auto from_float = [](const double* v) {
    return [v](int64_t i) { return v[i]; };
  };
  DL2SQL_RETURN_NOT_OK(
      ForEachMorsel(ctx, n, [&](int64_t bgn, int64_t end, int) -> Status {
        if (a_int && b_int) return run(bgn, end, from_int(ia), from_int(ib));
        if (a_int) return run(bgn, end, from_int(ia), from_float(fb));
        if (b_int) return run(bgn, end, from_float(fa), from_int(ib));
        return run(bgn, end, from_float(fa), from_float(fb));
      }));
  return Own(Column::Floats(std::move(out)));
}

/// Vectorized string comparison fast path (morsel-parallel, disjoint writes).
Result<ColumnHandle> FastStringCompare(BinaryOp op, const Column& a,
                                       const Column& b, EvalContext* ctx) {
  const int64_t n = a.size();
  std::vector<uint8_t> out(static_cast<size_t>(n));
  const auto& xa = a.strings();
  const auto& xb = b.strings();
  DL2SQL_RETURN_NOT_OK(
      ForEachMorsel(ctx, n, [&](int64_t bgn, int64_t end, int) {
        for (int64_t i = bgn; i < end; ++i) {
          const int c =
              xa[static_cast<size_t>(i)].compare(xb[static_cast<size_t>(i)]);
          bool v = false;
          switch (op) {
            case BinaryOp::kEq:
              v = c == 0;
              break;
            case BinaryOp::kNe:
              v = c != 0;
              break;
            case BinaryOp::kLt:
              v = c < 0;
              break;
            case BinaryOp::kLe:
              v = c <= 0;
              break;
            case BinaryOp::kGt:
              v = c > 0;
              break;
            case BinaryOp::kGe:
              v = c >= 0;
              break;
            default:
              break;
          }
          out[static_cast<size_t>(i)] = v ? 1 : 0;
        }
        return Status::OK();
      }));
  return Own(Column::Bools(std::move(out)));
}

Result<ColumnHandle> EvalBinary(const Expr& e, const Table& input,
                                EvalContext* ctx) {
  DL2SQL_ASSIGN_OR_RETURN(ColumnHandle l, EvalExpr(*e.children[0], input, ctx));
  DL2SQL_ASSIGN_OR_RETURN(ColumnHandle r, EvalExpr(*e.children[1], input, ctx));
  const BinaryOp op = e.bin_op;

  if (op != BinaryOp::kAnd && op != BinaryOp::kOr) {
    if (BothNumericNoNulls(*l, *r)) return FastBinary(op, *l, *r, ctx);
    if (IsComparison(op) && l->type() == DataType::kString &&
        r->type() == DataType::kString && !l->HasNulls() && !r->HasNulls()) {
      return FastStringCompare(op, *l, *r, ctx);
    }
  } else if (l->type() == DataType::kBool && r->type() == DataType::kBool &&
             !l->HasNulls() && !r->HasNulls()) {
    const int64_t n = l->size();
    std::vector<uint8_t> out(static_cast<size_t>(n));
    const auto& xa = l->bools();
    const auto& xb = r->bools();
    DL2SQL_RETURN_NOT_OK(
        ForEachMorsel(ctx, n, [&](int64_t bgn, int64_t end, int) {
          if (op == BinaryOp::kAnd) {
            for (int64_t i = bgn; i < end; ++i) {
              out[i] = (xa[i] && xb[i]) ? 1 : 0;
            }
          } else {
            for (int64_t i = bgn; i < end; ++i) {
              out[i] = (xa[i] || xb[i]) ? 1 : 0;
            }
          }
          return Status::OK();
        }));
    return Own(Column::Bools(std::move(out)));
  }

  // Row-wise fallback with full NULL semantics. The output column type is
  // determined by the operator and the operand types, as FastBinary and
  // InferExprType type it, so empty and all-NULL results stay typed
  // (filters require BOOL masks even over zero rows) and a NULL operand
  // never changes the type.
  const int64_t n = l->size();
  DataType out_type;
  if (IsComparison(op) || op == BinaryOp::kAnd || op == BinaryOp::kOr) {
    out_type = DataType::kBool;
  } else if (op == BinaryOp::kMod ||
             (op != BinaryOp::kDiv && l->type() == DataType::kInt64 &&
              r->type() == DataType::kInt64)) {
    out_type = DataType::kInt64;
  } else {
    out_type = DataType::kFloat64;
  }
  Column out(out_type);
  out.Reserve(n);
  for (int64_t i = 0; i < n; ++i) {
    DL2SQL_ASSIGN_OR_RETURN(Value v,
                            EvalValueBinary(op, l->GetValue(i), r->GetValue(i)));
    // Int arithmetic results coerce into the float output cleanly; other
    // type mismatches are genuine errors surfaced by Append.
    DL2SQL_RETURN_NOT_OK(out.Append(v));
  }
  return Own(std::move(out));
}

Result<ColumnHandle> EvalFuncCall(const Expr& e, const Table& input,
                                  EvalContext* ctx) {
  if (ctx == nullptr || ctx->udfs == nullptr) {
    return Status::InvalidArgument("no UDF registry available for call to ",
                                   e.func_name);
  }
  DL2SQL_ASSIGN_OR_RETURN(const ScalarUdf* udf, ctx->udfs->Find(e.func_name));
  if (udf->arity >= 0 && udf->arity != static_cast<int>(e.children.size())) {
    return Status::InvalidArgument(e.func_name, " expects ", udf->arity,
                                   " arguments, got ", e.children.size());
  }
  std::vector<ColumnHandle> args;
  args.reserve(e.children.size());
  for (const auto& c : e.children) {
    DL2SQL_ASSIGN_OR_RETURN(ColumnHandle a, EvalExpr(*c, input, ctx));
    args.push_back(std::move(a));
  }
  const int64_t n = input.num_rows();

  // Typed column body (numeric builtins): one call over the argument
  // columns when every one is NULL-free INT64 or FLOAT64.
  if (udf->column_fn != nullptr && !args.empty() &&
      std::all_of(args.begin(), args.end(), [](const ColumnHandle& a) {
        return IsNumeric(a->type()) && !a->HasNulls();
      })) {
    std::vector<const Column*> cols;
    for (const auto& a : args) cols.push_back(a.get());
    DL2SQL_ASSIGN_OR_RETURN(Column typed, udf->column_fn(cols));
    return Own(std::move(typed));
  }

  Stopwatch watch;
  Column out(udf->return_type == DataType::kNull ? DataType::kFloat64
                                                 : udf->return_type);
  out.Reserve(n);
  // The error context is built only when an append fails.
  auto append = [&](auto&& v) -> Status {
    Status st = out.Append(std::forward<decltype(v)>(v));
    return st.ok() ? st : st.WithContext("result of " + e.func_name);
  };

  // Vectorized body: one call per morsel (batched nUDF inference). Splitting
  // the column into morsels bounds the argument buffer to morsel_size rows
  // instead of materializing the whole table, and lets parallel-safe bodies
  // run concurrently on the pool. Per-morsel result buffers concatenated in
  // morsel order keep output identical to the serial whole-column call.
  if (udf->batch_fn != nullptr) {
    const int64_t m = MorselSizeOf(ctx);
    const int64_t num_morsels = n == 0 ? 0 : (n + m - 1) / m;
    std::vector<std::vector<Value>> parts(static_cast<size_t>(num_morsels));
    const bool parallel = udf->parallel_safe && ctx->pool != nullptr &&
                          ctx->pool->num_threads() > 1;
    // Cross-query memoization: probe per row, forward only the misses to the
    // model. The cache is sharded + thread-safe, so concurrent morsels may
    // probe and insert freely.
    ShardedLruCache* const cache =
        NudfCacheActive(udf, ctx) ? ctx->nudf_cache : nullptr;
    const uint64_t fingerprint = udf->neural.fingerprint;
    // Inference time is accumulated per worker and merged once: concurrent
    // `ctx->inference_seconds +=` from morsel bodies would race, and the sum
    // of per-worker compute seconds stays meaningful under parallelism where
    // a single wall-clock watch would under-count work done.
    std::vector<double> worker_seconds(
        static_cast<size_t>(parallel ? ctx->pool->num_threads() : 1), 0.0);
    // Morsels whose miss set was non-empty, i.e. real batch_fn invocations;
    // fully memoized morsels never reach the model.
    std::atomic<int64_t> invoked_batches{0};
    // Rows answered from the result cache (atomic: probed on pool workers).
    std::atomic<int64_t> cache_hit_rows{0};
    auto body = [&](int64_t bgn, int64_t end, int worker) -> Status {
      std::vector<std::vector<Value>> rows(static_cast<size_t>(end - bgn));
      {
        DL2SQL_TRACE_SPAN("nudf", "build_args");
        for (int64_t i = bgn; i < end; ++i) {
          auto& row = rows[static_cast<size_t>(i - bgn)];
          row.reserve(args.size());
          for (const auto& a : args) row.push_back(a->GetValue(i));
        }
      }
      std::vector<Value> results(rows.size());
      std::vector<uint64_t> keys;
      std::vector<size_t> miss;  // local indices still needing the model
      if (cache != nullptr) {
        DL2SQL_TRACE_SPAN("cache", "nudf_probe");
        keys.resize(rows.size());
        miss.reserve(rows.size());
        std::string buf;
        for (size_t i = 0; i < rows.size(); ++i) {
          keys[i] = NudfRowKey(fingerprint, rows[i], &buf);
          auto hit = cache->LookupAs<Value>(keys[i]);
          if (hit != nullptr) {
            results[i] = *hit;
          } else {
            miss.push_back(i);
          }
        }
        cache_hit_rows.fetch_add(
            static_cast<int64_t>(rows.size() - miss.size()),
            std::memory_order_relaxed);
      } else {
        miss.resize(rows.size());
        for (size_t i = 0; i < rows.size(); ++i) miss[i] = i;
      }
      if (!miss.empty()) {
        const bool all_miss = miss.size() == rows.size();
        std::vector<std::vector<Value>> miss_rows;
        if (!all_miss) {
          miss_rows.reserve(miss.size());
          for (size_t i : miss) miss_rows.push_back(std::move(rows[i]));
        }
        Stopwatch morsel_watch;
        std::vector<Value> fresh;
        {
          DL2SQL_TRACE_SPAN("nudf", "invoke_batch");
          DL2SQL_ASSIGN_OR_RETURN(fresh,
                                  udf->batch_fn(all_miss ? rows : miss_rows));
        }
        invoked_batches.fetch_add(1, std::memory_order_relaxed);
        const double batch_seconds = morsel_watch.ElapsedSeconds();
        if (udf->is_neural) {
          static Histogram* const batch_us =
              MetricsRegistry::Global().histogram("nudf.batch_us");
          batch_us->Record(static_cast<int64_t>(batch_seconds * 1e6));
        }
        worker_seconds[static_cast<size_t>(worker)] += batch_seconds;
        if (fresh.size() != miss.size()) {
          return Status::InternalError(e.func_name, " batch body returned ",
                                       fresh.size(), " values for ",
                                       miss.size(), " rows");
        }
        for (size_t j = 0; j < miss.size(); ++j) {
          if (cache != nullptr) {
            cache->Insert(keys[miss[j]],
                          std::make_shared<const Value>(fresh[j]),
                          ValueCacheCharge(fresh[j]));
          }
          results[miss[j]] = std::move(fresh[j]);
        }
      }
      parts[static_cast<size_t>(bgn / m)] = std::move(results);
      return Status::OK();
    };
    if (parallel) {
      DL2SQL_RETURN_NOT_OK(ctx->pool->ParallelForMorsel(n, m, body));
    } else {
      for (int64_t b = 0; b < n; b += m) {
        DL2SQL_RETURN_NOT_OK(body(b, std::min(n, b + m), 0));
      }
    }
    for (auto& part : parts) {
      for (auto& v : part) DL2SQL_RETURN_NOT_OK(append(std::move(v)));
    }
    if (udf->is_neural) {
      double secs = 0.0;
      for (double s : worker_seconds) secs += s;
      ctx->inference_seconds += secs;
      // Rows answered by the model, memoized or fresh: cache hits must not
      // perturb the per-row tallies the hint/pruning tests assert on.
      ctx->neural_calls += n;
      ctx->nudf_cache_hits +=
          cache_hit_rows.load(std::memory_order_relaxed);
      if (ctx->costs != nullptr) ctx->costs->Add("inference", secs);
      static Counter* const invocations =
          MetricsRegistry::Global().counter("nudf.invocations");
      static Counter* const batches =
          MetricsRegistry::Global().counter("nudf.batches");
      invocations->Increment(n);
      batches->Increment(invoked_batches.load(std::memory_order_relaxed));
    }
    return Own(std::move(out));
  }

  std::vector<Value> row(args.size());
  bool typed = udf->return_type != DataType::kNull;
  // Memoize per-row results only for declared-return-type neural UDFs (all
  // model deployments are); the dynamic-type path below stays untouched.
  ShardedLruCache* const row_cache =
      typed && NudfCacheActive(udf, ctx) ? ctx->nudf_cache : nullptr;
  std::string key_buf;
  std::vector<Value> untyped_buffer;
  for (int64_t i = 0; i < n; ++i) {
    for (size_t a = 0; a < args.size(); ++a) row[a] = args[a]->GetValue(i);
    uint64_t key = 0;
    if (row_cache != nullptr) {
      key = NudfRowKey(udf->neural.fingerprint, row, &key_buf);
      if (auto hit = row_cache->LookupAs<Value>(key)) {
        ctx->nudf_cache_hits += 1;
        DL2SQL_RETURN_NOT_OK(append(*hit));
        continue;
      }
    }
    DL2SQL_ASSIGN_OR_RETURN(Value v, udf->fn(row));
    if (row_cache != nullptr) {
      row_cache->Insert(key, std::make_shared<const Value>(v),
                        ValueCacheCharge(v));
    }
    if (!typed) {
      // Functions with dynamic return type (e.g. if()): type from first
      // non-null result.
      untyped_buffer.push_back(std::move(v));
      if (!untyped_buffer.back().is_null()) {
        Column c(untyped_buffer.back().type());
        c.Reserve(n);
        for (auto& bv : untyped_buffer) {
          DL2SQL_RETURN_NOT_OK(c.Append(std::move(bv)));
        }
        out = std::move(c);
        typed = true;
        untyped_buffer.clear();
      }
      continue;
    }
    DL2SQL_RETURN_NOT_OK(append(std::move(v)));
  }
  if (!typed && n > 0) {
    // Every row came back NULL from a function with no declared return type,
    // so there is nothing to infer the column type from. Silently picking
    // float64 used to mask schema bugs downstream; surface it instead.
    return Status::TypeError(e.func_name, ": untyped function returned NULL ",
                             "for all ", n,
                             " rows; cannot infer result column type");
  }
  if (udf->is_neural) {
    const double secs = watch.ElapsedSeconds();
    ctx->inference_seconds += secs;
    ctx->neural_calls += n;
    if (ctx->costs != nullptr) ctx->costs->Add("inference", secs);
    static Counter* const invocations =
        MetricsRegistry::Global().counter("nudf.invocations");
    invocations->Increment(n);
  }
  return Own(std::move(out));
}

}  // namespace

Result<ColumnHandle> EvalExpr(const Expr& e, const Table& input,
                              EvalContext* ctx) {
  switch (e.kind) {
    case ExprKind::kLiteral:
      return Own(BroadcastValue(e.literal, input.num_rows()));
    case ExprKind::kColumnRef: {
      int idx = e.bound_index;
      if (idx < 0) {
        DL2SQL_ASSIGN_OR_RETURN(idx, input.schema().Find(e.column_name));
      }
      if (idx >= input.num_columns()) {
        return Status::InternalError("bound column index ", idx,
                                     " out of range");
      }
      return Alias(input.column(idx));
    }
    case ExprKind::kBinary:
      return EvalBinary(e, input, ctx);
    case ExprKind::kUnary: {
      DL2SQL_ASSIGN_OR_RETURN(ColumnHandle x,
                              EvalExpr(*e.children[0], input, ctx));
      const int64_t n = x->size();
      if (e.un_op == UnaryOp::kNot) {
        if (x->type() != DataType::kBool) {
          return Status::TypeError("NOT expects BOOL, got ",
                                   DataTypeToString(x->type()));
        }
        Column out(DataType::kBool);
        out.Reserve(n);
        for (int64_t i = 0; i < n; ++i) {
          const Value v = x->GetValue(i);
          DL2SQL_RETURN_NOT_OK(out.Append(
              v.is_null() ? Value::Null() : Value::Bool(!v.bool_value())));
        }
        return Own(std::move(out));
      }
      // Negation; an INT64 operand stays INT64, NULLs included.
      if (x->type() == DataType::kInt64) {
        std::vector<int64_t> out(static_cast<size_t>(n));
        for (int64_t i = 0; i < n; ++i) out[i] = -x->ints()[i];
        Column neg = Column::Ints(std::move(out));
        neg.SetValidity(x->validity());
        return Own(std::move(neg));
      }
      Column out(DataType::kFloat64);
      out.Reserve(n);
      for (int64_t i = 0; i < n; ++i) {
        const Value v = x->GetValue(i);
        if (v.is_null()) {
          DL2SQL_RETURN_NOT_OK(out.Append(Value::Null()));
        } else {
          DL2SQL_ASSIGN_OR_RETURN(double d, v.AsDouble());
          DL2SQL_RETURN_NOT_OK(out.Append(Value::Float(-d)));
        }
      }
      return Own(std::move(out));
    }
    case ExprKind::kFuncCall:
      return EvalFuncCall(e, input, ctx);
    case ExprKind::kAggCall:
      return Status::InternalError(
          "aggregate call reached the evaluator; it should have been planned "
          "into an Aggregate operator: ",
          e.ToString());
    case ExprKind::kScalarSubquery: {
      if (ctx == nullptr || !ctx->subquery_exec) {
        return Status::InvalidArgument("scalar subquery without executor");
      }
      DL2SQL_ASSIGN_OR_RETURN(Value v, ctx->subquery_exec(*e.subquery));
      return Own(BroadcastValue(v, input.num_rows()));
    }
    case ExprKind::kInList: {
      DL2SQL_ASSIGN_OR_RETURN(ColumnHandle tested,
                              EvalExpr(*e.children[0], input, ctx));
      std::vector<Value> list;
      for (size_t i = 1; i < e.children.size(); ++i) {
        DL2SQL_ASSIGN_OR_RETURN(Value v, EvalScalar(*e.children[i], ctx));
        list.push_back(std::move(v));
      }
      const int64_t n = tested->size();
      Column out(DataType::kBool);
      out.Reserve(n);
      for (int64_t i = 0; i < n; ++i) {
        const Value v = tested->GetValue(i);
        if (v.is_null()) {
          DL2SQL_RETURN_NOT_OK(out.Append(Value::Null()));
          continue;
        }
        bool found = false;
        for (const auto& item : list) {
          if (v.Equals(item)) {
            found = true;
            break;
          }
        }
        DL2SQL_RETURN_NOT_OK(out.Append(Value::Bool(found)));
      }
      return Own(std::move(out));
    }
    case ExprKind::kStar:
      return Status::InternalError("'*' reached the evaluator");
  }
  return Status::InternalError("unhandled expression kind");
}

Result<Value> EvalScalar(const Expr& e, EvalContext* ctx) {
  switch (e.kind) {
    case ExprKind::kLiteral:
      return e.literal;
    case ExprKind::kScalarSubquery: {
      if (ctx == nullptr || !ctx->subquery_exec) {
        return Status::InvalidArgument("scalar subquery without executor");
      }
      return ctx->subquery_exec(*e.subquery);
    }
    case ExprKind::kBinary: {
      DL2SQL_ASSIGN_OR_RETURN(Value l, EvalScalar(*e.children[0], ctx));
      DL2SQL_ASSIGN_OR_RETURN(Value r, EvalScalar(*e.children[1], ctx));
      return EvalValueBinary(e.bin_op, l, r);
    }
    case ExprKind::kUnary: {
      DL2SQL_ASSIGN_OR_RETURN(Value v, EvalScalar(*e.children[0], ctx));
      if (v.is_null()) return Value::Null();
      if (e.un_op == UnaryOp::kNot) {
        if (v.type() != DataType::kBool) {
          return Status::TypeError("NOT expects BOOL");
        }
        return Value::Bool(!v.bool_value());
      }
      DL2SQL_ASSIGN_OR_RETURN(double d, v.AsDouble());
      if (v.type() == DataType::kInt64) return Value::Int(-v.int_value());
      return Value::Float(-d);
    }
    case ExprKind::kFuncCall: {
      if (ctx == nullptr || ctx->udfs == nullptr) {
        return Status::InvalidArgument("no UDF registry for ", e.func_name);
      }
      DL2SQL_ASSIGN_OR_RETURN(const ScalarUdf* udf, ctx->udfs->Find(e.func_name));
      std::vector<Value> args;
      for (const auto& c : e.children) {
        DL2SQL_ASSIGN_OR_RETURN(Value v, EvalScalar(*c, ctx));
        args.push_back(std::move(v));
      }
      uint64_t key = 0;
      ShardedLruCache* const cache =
          NudfCacheActive(udf, ctx) ? ctx->nudf_cache : nullptr;
      if (cache != nullptr) {
        std::string buf;
        key = NudfRowKey(udf->neural.fingerprint, args, &buf);
        if (auto hit = cache->LookupAs<Value>(key)) {
          // Memoized model answer: still a neural call for accounting.
          ctx->neural_calls += 1;
          ctx->nudf_cache_hits += 1;
          static Counter* const invocations =
              MetricsRegistry::Global().counter("nudf.invocations");
          invocations->Increment();
          return *hit;
        }
      }
      Stopwatch watch;
      DL2SQL_ASSIGN_OR_RETURN(Value out, udf->fn(args));
      if (udf->is_neural) {
        const double secs = watch.ElapsedSeconds();
        ctx->inference_seconds += secs;
        ctx->neural_calls += 1;
        if (ctx->costs != nullptr) ctx->costs->Add("inference", secs);
        static Counter* const invocations =
            MetricsRegistry::Global().counter("nudf.invocations");
        invocations->Increment();
      }
      if (cache != nullptr) {
        cache->Insert(key, std::make_shared<const Value>(out),
                      ValueCacheCharge(out));
      }
      return out;
    }
    default:
      return Status::InvalidArgument("expression is not row-independent: ",
                                     e.ToString());
  }
}

Result<DataType> InferExprType(const Expr& e, const TableSchema& schema,
                               const UdfRegistry* udfs) {
  switch (e.kind) {
    case ExprKind::kLiteral:
      return e.literal.type() == DataType::kNull ? DataType::kFloat64
                                                 : e.literal.type();
    case ExprKind::kColumnRef: {
      if (e.bound_index >= 0 && e.bound_index < schema.num_fields()) {
        return schema.field(e.bound_index).type;
      }
      DL2SQL_ASSIGN_OR_RETURN(int idx, schema.Find(e.column_name));
      return schema.field(idx).type;
    }
    case ExprKind::kBinary: {
      if (IsComparison(e.bin_op) || e.bin_op == BinaryOp::kAnd ||
          e.bin_op == BinaryOp::kOr) {
        return DataType::kBool;
      }
      if (e.bin_op == BinaryOp::kDiv) return DataType::kFloat64;
      if (e.bin_op == BinaryOp::kMod) return DataType::kInt64;
      DL2SQL_ASSIGN_OR_RETURN(DataType l,
                              InferExprType(*e.children[0], schema, udfs));
      DL2SQL_ASSIGN_OR_RETURN(DataType r,
                              InferExprType(*e.children[1], schema, udfs));
      if (l == DataType::kInt64 && r == DataType::kInt64) {
        return DataType::kInt64;
      }
      return DataType::kFloat64;
    }
    case ExprKind::kUnary:
      if (e.un_op == UnaryOp::kNot) return DataType::kBool;
      return InferExprType(*e.children[0], schema, udfs);
    case ExprKind::kFuncCall: {
      if (udfs != nullptr) {
        auto r = udfs->Find(e.func_name);
        if (r.ok() && (*r)->return_type != DataType::kNull) {
          return (*r)->return_type;
        }
      }
      return DataType::kFloat64;
    }
    case ExprKind::kAggCall:
      switch (e.agg_func) {
        case AggFunc::kCount:
        case AggFunc::kCountStar:
          return DataType::kInt64;
        case AggFunc::kMin:
        case AggFunc::kMax:
          return InferExprType(*e.children[0], schema, udfs);
        default:
          return DataType::kFloat64;
      }
    case ExprKind::kScalarSubquery:
      return DataType::kFloat64;
    case ExprKind::kInList:
      return DataType::kBool;
    case ExprKind::kStar:
      return Status::InvalidArgument("cannot type '*'");
  }
  return Status::InternalError("unhandled expression kind");
}

Result<std::vector<int64_t>> FilterRows(const Expr& predicate,
                                        const Table& input, EvalContext* ctx) {
  if (ctx != nullptr && ctx->vectorized) {
    // Batch-at-a-time path: compile the predicate to selection-vector
    // kernels and skip boolean-mask materialization entirely. Falls through
    // to the row path when the predicate doesn't compile.
    std::vector<int64_t> vrows;
    DL2SQL_ASSIGN_OR_RETURN(bool done,
                            vec::TryVectorFilter(predicate, input, ctx, &vrows));
    if (done) return vrows;
  }
  DL2SQL_ASSIGN_OR_RETURN(ColumnHandle mask, EvalExpr(predicate, input, ctx));
  if (mask->type() != DataType::kBool) {
    return Status::TypeError("filter predicate must be BOOL, got ",
                             DataTypeToString(mask->type()), " from ",
                             predicate.ToString());
  }
  std::vector<int64_t> rows;
  const int64_t n = mask->size();
  const int64_t m = MorselSizeOf(ctx);
  if (ctx == nullptr || ctx->pool == nullptr || ctx->pool->num_threads() <= 1 ||
      n <= m) {
    const auto& bits = mask->bools();
    for (int64_t i = 0; i < n; ++i) {
      if (mask->IsValid(i) && bits[static_cast<size_t>(i)] != 0) {
        rows.push_back(i);
      }
    }
    return rows;
  }
  // Morsel-parallel selection: each morsel collects its passing indices into
  // its own buffer; concatenating buffers in morsel order reproduces the
  // serial ascending order exactly, for any thread count.
  const int64_t num_morsels = (n + m - 1) / m;
  std::vector<std::vector<int64_t>> parts(static_cast<size_t>(num_morsels));
  DL2SQL_RETURN_NOT_OK(ctx->pool->ParallelForMorsel(
      n, m, [&](int64_t bgn, int64_t end, int) {
        auto& part = parts[static_cast<size_t>(bgn / m)];
        const auto& bits = mask->bools();
        for (int64_t i = bgn; i < end; ++i) {
          if (mask->IsValid(i) && bits[static_cast<size_t>(i)] != 0) {
            part.push_back(i);
          }
        }
        return Status::OK();
      }));
  size_t total = 0;
  for (const auto& p : parts) total += p.size();
  rows.reserve(total);
  for (const auto& p : parts) rows.insert(rows.end(), p.begin(), p.end());
  return rows;
}

}  // namespace dl2sql::db
