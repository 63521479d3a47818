/// \file vector_expr.h
/// \brief Numeric scalar expressions compiled to typed batch programs: the
/// one compiler behind the vectorized filter's comparison operands and the
/// fused join→aggregate pass's group keys and aggregate arguments.
///
/// A program covers exactly what the row path's FastBinary evaluates over
/// NULL-free numeric columns: INT64/FLOAT64 column references, numeric
/// literals, + - * / % and negation. CompileNum refuses everything else
/// (NULL-bearing columns, function calls, subqueries, strings), and callers
/// then take the row path, so whole-column and batch evaluation always agree
/// value for value and type for type.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>

#include "common/result.h"
#include "db/column.h"
#include "db/exec/vector_batch.h"
#include "db/expr.h"

namespace dl2sql::db::vec {

/// A numeric scalar sub-expression compiled to kernel form. `is_int` is the
/// value domain the row path's FastBinary would produce (int arithmetic
/// stays int64 with wraparound; kDiv is always float; kMod over floats is
/// fmod), so the vectorized intermediates carry exactly the same values.
struct CompiledNum {
  enum class Kind : uint8_t { kColInt, kColFloat, kImmInt, kImmFloat, kBin, kNeg };
  Kind kind = Kind::kImmFloat;
  const Column* col = nullptr;
  int64_t imm_i = 0;
  double imm_f = 0;
  BinaryOp op = BinaryOp::kAdd;
  bool is_int = false;
  std::unique_ptr<CompiledNum> l, r;
};

/// The column a compiled program reads for a column reference; nullptr
/// refuses the reference (and with it the whole expression).
using ColumnResolver = std::function<const Column*(const Expr&)>;

/// Compiles `e`, or returns nullptr when it is outside the program
/// inventory. Resolved columns must be NULL-free INT64 or FLOAT64; the
/// program keeps pointers to them and reads their data at evaluation time.
std::unique_ptr<CompiledNum> CompileNum(const Expr& e,
                                        const ColumnResolver& resolve);

/// Evaluates `e` over the batch window starting at table row `begin` for
/// the `count` in-window rows listed in `sel`; intermediates come from
/// `arena`. Errors on integer modulo by zero over a listed row.
Result<NumOperand> EvalNum(const CompiledNum& e, int64_t begin,
                           const SelIndex* sel, SelIndex count,
                           BatchArena* arena);

/// Evaluates `e` over rows [0, n) of its columns into `out`, reusing its
/// capacity; `out` must be INT64 when e.is_int and FLOAT64 otherwise.
Status EvalNumInto(const CompiledNum& e, int64_t n, BatchArena* arena,
                   Column* out);

/// Inclusive bounds on every value an INT64 program takes over its columns'
/// rows: column min/max carried through interval arithmetic. nullopt for
/// float programs, empty columns, and any step whose bounds leave INT64
/// (where the program's arithmetic would wrap).
std::optional<std::pair<int64_t, int64_t>> IntBounds(const CompiledNum& e);

}  // namespace dl2sql::db::vec
