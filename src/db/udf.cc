#include "db/udf.h"

#include <cmath>
#include <limits>

#include "common/string_util.h"

namespace dl2sql::db {

double NUdfSelectivity::Probability(const std::string& label) const {
  const int64_t total = TotalCount();
  if (total == 0) return 0.5;
  auto it = histogram.find(label);
  if (it == histogram.end()) {
    // Unseen class: spread residual mass uniformly-ish.
    return 1.0 / static_cast<double>(histogram.size() + 1);
  }
  return static_cast<double>(it->second) / static_cast<double>(total);
}

int64_t NUdfSelectivity::TotalCount() const {
  int64_t t = 0;
  for (const auto& [_, c] : histogram) t += c;
  return t;
}

UdfRegistry::UdfRegistry() { RegisterBuiltins(); }

void UdfRegistry::Register(ScalarUdf udf) {
  const std::string key = ToLower(udf.name);
  // Model-reload invalidation: replacing a neural body whose fingerprint
  // changed means previously memoized results describe a stale model.
  auto it = fns_.find(key);
  if (it != fns_.end() && it->second.is_neural && udf.is_neural &&
      it->second.neural.fingerprint != udf.neural.fingerprint &&
      neural_replaced_hook_) {
    neural_replaced_hook_(key);
  }
  fns_[key] = std::move(udf);
  ++version_;
}

void UdfRegistry::RegisterNeural(const std::string& name, DataType return_type,
                                 ScalarFn fn, NUdfInfo info, BatchFn batch_fn,
                                 int arity, bool parallel_safe) {
  ScalarUdf udf;
  udf.name = name;
  udf.arity = arity;
  udf.return_type = return_type;
  udf.fn = std::move(fn);
  udf.batch_fn = std::move(batch_fn);
  udf.is_neural = true;
  udf.neural = std::move(info);
  udf.parallel_safe = parallel_safe;
  Register(std::move(udf));
}

Result<const ScalarUdf*> UdfRegistry::Find(const std::string& name) const {
  auto it = fns_.find(ToLower(name));
  if (it == fns_.end()) {
    return Status::NotFound("function '", name, "' is not registered");
  }
  return &it->second;
}

bool UdfRegistry::IsNeural(const std::string& name) const {
  auto r = Find(name);
  return r.ok() && (*r)->is_neural;
}

std::vector<std::string> UdfRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(fns_.size());
  for (const auto& [k, _] : fns_) names.push_back(k);
  return names;
}

namespace {

Status CheckNumeric(const Value& v, const char* fname) {
  if (!IsNumeric(v.type()) && v.type() != DataType::kBool) {
    return Status::TypeError(fname, ": non-numeric argument of type ",
                             DataTypeToString(v.type()));
  }
  return Status::OK();
}

/// Calls f(i, x) for every element x of an INT64 or FLOAT64 column, read
/// as double the way Value::AsDouble reads it.
template <typename F>
void ForEachDouble(const Column& c, F f) {
  if (c.type() == DataType::kInt64) {
    const std::vector<int64_t>& v = c.ints();
    for (size_t i = 0; i < v.size(); ++i) f(i, static_cast<double>(v[i]));
  } else {
    const std::vector<double>& v = c.floats();
    for (size_t i = 0; i < v.size(); ++i) f(i, v[i]);
  }
}

/// Element i of an INT64 or FLOAT64 column read as int64 the way
/// Value::AsInt reads it (floats truncate).
inline int64_t IntAt(const Column& c, size_t i) {
  return c.type() == DataType::kInt64 ? c.ints()[i]
                                      : static_cast<int64_t>(c.floats()[i]);
}

/// intDiv: truncating division. Division by zero, and INT64_MIN / -1, whose
/// quotient does not fit (x86 traps on it), are refused, as in ClickHouse.
inline Status IntDivide(int64_t a, int64_t b, int64_t* out) {
  if (b == 0) return Status::InvalidArgument("intDiv by zero");
  if (b == -1 && a == std::numeric_limits<int64_t>::min()) {
    return Status::InvalidArgument("intDiv overflow: ", a, " / -1");
  }
  *out = a / b;
  return Status::OK();
}

/// modulo: C++'s truncating remainder; by zero is refused, and by -1 it is
/// 0 (x86 traps on INT64_MIN % -1).
inline Status Modulo(int64_t a, int64_t b, int64_t* out) {
  if (b == 0) return Status::InvalidArgument("modulo by zero");
  *out = b == -1 ? 0 : a % b;
  return Status::OK();
}

/// Row and column bodies of an integer operation (IntDivide, Modulo) over
/// two numeric arguments coerced to INT64.
using IntOp = Status (*)(int64_t, int64_t, int64_t*);

ScalarFn IntRow(IntOp op) {
  return [op](const std::vector<Value>& args) -> Result<Value> {
    if (args[0].is_null() || args[1].is_null()) return Value::Null();
    DL2SQL_ASSIGN_OR_RETURN(int64_t a, args[0].AsInt());
    DL2SQL_ASSIGN_OR_RETURN(int64_t b, args[1].AsInt());
    int64_t out = 0;
    DL2SQL_RETURN_NOT_OK(op(a, b, &out));
    return Value::Int(out);
  };
}

ColumnFn IntColumn(IntOp op) {
  return [op](const std::vector<const Column*>& args) -> Result<Column> {
    const Column& x = *args[0];
    const Column& y = *args[1];
    std::vector<int64_t> out(static_cast<size_t>(x.size()));
    for (size_t i = 0; i < out.size(); ++i) {
      DL2SQL_RETURN_NOT_OK(op(IntAt(x, i), IntAt(y, i), &out[i]));
    }
    return Column::Ints(std::move(out));
  };
}

/// Row and column bodies of greatest (want_max) or least. An argument
/// replaces the best so far only when Value::Compare orders it strictly
/// after (before), so ties, -0.0 against 0.0 and NaN keep the earlier
/// argument; the FLOAT64 result reads every argument as double.
ScalarFn ExtremeRow(bool want_max, const char* fname) {
  return [want_max, fname](const std::vector<Value>& args) -> Result<Value> {
    if (args.empty()) {
      return Status::InvalidArgument(fname, ": no arguments");
    }
    Value best = args[0];
    for (size_t i = 1; i < args.size(); ++i) {
      if (best.is_null()) {
        best = args[i];
      } else if (!args[i].is_null()) {
        const int c = args[i].Compare(best);
        if (want_max ? c > 0 : c < 0) best = args[i];
      }
    }
    return best;
  };
}

ColumnFn ExtremeColumn(bool want_max) {
  return [want_max](const std::vector<const Column*>& args) -> Result<Column> {
    std::vector<double> best(static_cast<size_t>(args[0]->size()));
    ForEachDouble(*args[0], [&](size_t i, double x) { best[i] = x; });
    for (size_t a = 1; a < args.size(); ++a) {
      if (want_max) {
        ForEachDouble(*args[a], [&](size_t i, double x) {
          if (x > best[i]) best[i] = x;
        });
      } else {
        ForEachDouble(*args[a], [&](size_t i, double x) {
          if (x < best[i]) best[i] = x;
        });
      }
    }
    return Column::Floats(std::move(best));
  };
}

ScalarUdf Builtin(const char* name, int arity, DataType return_type,
                  ScalarFn fn, ColumnFn column_fn = nullptr) {
  ScalarUdf udf;
  udf.name = name;
  udf.arity = arity;
  udf.return_type = return_type;
  udf.fn = std::move(fn);
  udf.column_fn = std::move(column_fn);
  return udf;
}

/// A double->double math function as a builtin: NULL in, NULL out.
ScalarUdf Unary(const char* name, double (*f)(double)) {
  return Builtin(
      name, 1, DataType::kFloat64,
      [f, name](const std::vector<Value>& args) -> Result<Value> {
        if (args[0].is_null()) return Value::Null();
        DL2SQL_RETURN_NOT_OK(CheckNumeric(args[0], name));
        return Value::Float(f(*args[0].AsDouble()));
      },
      [f](const std::vector<const Column*>& args) -> Result<Column> {
        std::vector<double> out(static_cast<size_t>(args[0]->size()));
        ForEachDouble(*args[0], [&](size_t i, double x) { out[i] = f(x); });
        return Column::Floats(std::move(out));
      });
}

}  // namespace

void UdfRegistry::RegisterBuiltins() {
  Register(Unary("abs", std::fabs));
  Register(Unary("sqrt", std::sqrt));
  Register(Unary("exp", std::exp));
  Register(Unary("ln", std::log));
  Register(Unary("floor", std::floor));
  Register(Unary("ceil", std::ceil));
  Register(Unary("round", std::round));

  Register(Builtin("pow", 2, DataType::kFloat64,
                   [](const std::vector<Value>& args) -> Result<Value> {
                     if (args[0].is_null() || args[1].is_null()) {
                       return Value::Null();
                     }
                     DL2SQL_ASSIGN_OR_RETURN(double a, args[0].AsDouble());
                     DL2SQL_ASSIGN_OR_RETURN(double b, args[1].AsDouble());
                     return Value::Float(std::pow(a, b));
                   }));

  Register(Builtin("greatest", -1, DataType::kFloat64,
                   ExtremeRow(true, "greatest"), ExtremeColumn(true)));
  Register(Builtin("least", -1, DataType::kFloat64,
                   ExtremeRow(false, "least"), ExtremeColumn(false)));

  Register(Builtin("if", 3, DataType::kNull,
                   [](const std::vector<Value>& args) -> Result<Value> {
                     if (args[0].is_null()) return args[2];
                     if (args[0].type() != DataType::kBool) {
                       return Status::TypeError("if: condition must be BOOL");
                     }
                     return args[0].bool_value() ? args[1] : args[2];
                   }));

  Register(Builtin("intdiv", 2, DataType::kInt64, IntRow(IntDivide),
                   IntColumn(IntDivide)));
  Register(Builtin("modulo", 2, DataType::kInt64, IntRow(Modulo),
                   IntColumn(Modulo)));

  Register(Builtin("length", 1, DataType::kInt64,
                   [](const std::vector<Value>& args) -> Result<Value> {
                     if (args[0].is_null()) return Value::Null();
                     if (args[0].type() != DataType::kString &&
                         args[0].type() != DataType::kBlob) {
                       return Status::TypeError("length: expects STRING/BLOB");
                     }
                     return Value::Int(
                         static_cast<int64_t>(args[0].string_value().size()));
                   }));
}

}  // namespace dl2sql::db
