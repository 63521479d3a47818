/// \file vector_kernels.h
/// \brief SIMD-friendly tight-loop kernels for batch-at-a-time execution:
/// selection-vector refinement (comparisons, boolean columns, set algebra),
/// sel-compressed arithmetic, batched canonical row-key hashing, and typed
/// aggregate accumulation.
///
/// Every kernel operates on one batch window and plain typed arrays; no
/// Value is ever boxed. Numeric comparison semantics match the row path's
/// FastBinary exactly (both operands canonicalized through double), and the
/// hash/equality kernels match row_key.h's encoding exactly (integral floats
/// compare equal to the same int64; NULL parts group together but never
/// join), so the vectorized operators are bit-identical to the row
/// operators.
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "common/cache.h"
#include "common/result.h"
#include "db/column.h"
#include "db/exec/vector_batch.h"
#include "db/expr.h"

namespace dl2sql::db::vec {

/// \name Selection-vector refinement
/// All refine kernels read `sel[0..count)` (ascending in-window rows), write
/// the surviving subset to `out` (ascending again) and return the survivor
/// count. `out` may not alias `sel`.
/// @{

/// Numeric comparison: keeps rows where `a op b` holds, both operands read
/// through the double canonicalization the row path uses.
SelIndex RefineCompareNum(BinaryOp op, const NumOperand& a,
                          const NumOperand& b, const SelIndex* sel,
                          SelIndex count, SelIndex* out);

/// String comparison against a dense column slice and/or an immediate.
/// Null entries must have been excluded already. A null `imm` means "dense
/// column slice"; exactly mirrors FastStringCompare's std::string::compare.
struct StrOperand {
  const std::string* base = nullptr;  ///< dense slice, indexed by row
  const std::string* imm = nullptr;   ///< immediate; wins over base
  const std::string& At(SelIndex r) const { return imm ? *imm : base[r]; }
};
SelIndex RefineCompareStr(BinaryOp op, const StrOperand& a,
                          const StrOperand& b, const SelIndex* sel,
                          SelIndex count, SelIndex* out);

/// Boolean column as predicate: keeps rows where bools[row] equals `want`.
SelIndex RefineBool(const uint8_t* bools, bool want, const SelIndex* sel,
                    SelIndex count, SelIndex* out);

/// Union of two ascending selection vectors (OR). Returns merged count.
SelIndex SelUnion(const SelIndex* a, SelIndex an, const SelIndex* b,
                  SelIndex bn, SelIndex* out);

/// Difference sel \ sub (NOT), where `sub` is an ascending subset of `sel`.
SelIndex SelDifference(const SelIndex* sel, SelIndex count,
                       const SelIndex* sub, SelIndex sub_count, SelIndex* out);
/// @}

/// \name Sel-compressed arithmetic
/// Results are written at selection-slot positions `out[0..count)`, aligned
/// with the selection vector that produced them (no gather needed).
/// @{

/// Integer arithmetic (kAdd/kSub/kMul/kMod). Errors on modulo by zero over a
/// *selected* row, mirroring the row path's error (the row path evaluates
/// unselected rows too; see DESIGN.md for the documented divergence on
/// data-dependent errors).
Status ArithInt(BinaryOp op, const NumOperand& a, const NumOperand& b,
                const SelIndex* sel, SelIndex count, int64_t* out);

/// Float arithmetic (kAdd/kSub/kMul/kDiv/kMod); kDiv is always float and
/// x/0 -> inf, kMod is fmod — ClickHouse semantics, same as the row path.
Status ArithFloat(BinaryOp op, const NumOperand& a, const NumOperand& b,
                  const SelIndex* sel, SelIndex count, double* out);

void NegInt(const NumOperand& a, const SelIndex* sel, SelIndex count,
            int64_t* out);
void NegFloat(const NumOperand& a, const SelIndex* sel, SelIndex count,
              double* out);
/// @}

/// \name Batched canonical row-key hashing (join build/probe, hash agg)
/// The canonical key view mirrors row_key.h byte encodings: two rows hash
/// (and compare) equal iff their AppendKeyPart encodings are equal.
/// @{

/// Combined canonical hash of the key columns for rows [begin, end), written
/// to out[0..end-begin).
void HashKeyRange(const std::vector<const Column*>& cols, int64_t begin,
                  int64_t end, uint64_t* out);

/// A row's HashKeyRange hash is kKeyHashSeed folded with CombineKeyHash
/// over its key columns' canonical hash parts, in key order.
inline constexpr uint64_t kKeyHashSeed = 0xd1b54a32d192ed03ull;
inline uint64_t CombineKeyHash(uint64_t hash, uint64_t part) {
  return HashCombine(hash, part);
}

/// Canonical hash part of one key column for rows [begin, end), written to
/// out[0..end-begin) (callers that assemble key rows from several inputs
/// fold these themselves).
void KeyPartHashRange(const Column& col, int64_t begin, int64_t end,
                      uint64_t* out);

/// out[i] = 1 iff any key column is NULL at row begin+i (NULL keys never
/// join).
void KeyNullRange(const std::vector<const Column*>& cols, int64_t begin,
                  int64_t end, uint8_t* out);

/// Exact canonical equality of one key part across (possibly differently
/// typed) columns: a[ra] and b[rb] have equal AppendKeyPart encodings.
bool CanonicalKeyPartEqual(const Column& a, int64_t ra, const Column& b,
                           int64_t rb);
/// @}

/// \name Typed aggregate accumulation
/// Per-(group, aggregate) state updated a batch at a time through a
/// gid-per-row buffer; no Value boxing. Emission converts these back into
/// exactly the Values the generic state (vector_aggregate.h) produces. A
/// kernel reads batch row i's argument as `at(i)`, so one loop serves a
/// contiguous array, a column read through row ids, and the product of two
/// such reads.
/// @{

struct VAggState {
  int64_t count = 0;
  double sum = 0;
  double sumsq = 0;
  bool has_minmax = false;
  int64_t imin_max = 0;  ///< int min OR max, per the aggregate's direction
  double fmin_max = 0;   ///< float min OR max
};

/// COUNT(*) and COUNT(non-null non-bool column): one per row.
inline void AccumulateCount(const SelIndex* gids, SelIndex n,
                            VAggState* states) {
  for (SelIndex i = 0; i < n; ++i) ++states[gids[i]].count;
}

/// COUNT(bool_expr): counts TRUE (non-zero) rows (the paper's
/// count(nUDF(...) = TRUE)).
template <typename At>
void AccumulateCountBool(At at, const SelIndex* gids, SelIndex n,
                         VAggState* states) {
  for (SelIndex i = 0; i < n; ++i) {
    states[gids[i]].count += at(i) != 0 ? 1 : 0;
  }
}

/// SUM/AVG/STDDEV over a numeric argument: count + sum, plus the sum of
/// squares when kSquares (STDDEV), in row order (serial accumulation order
/// matches the generic state bit-for-bit). INT64 arguments sum as doubles.
template <bool kSquares, typename At>
void AccumulateSum(At at, const SelIndex* gids, SelIndex n,
                   VAggState* states) {
  for (SelIndex i = 0; i < n; ++i) {
    VAggState& st = states[gids[i]];
    const double d = static_cast<double>(at(i));
    ++st.count;
    st.sum += d;
    if constexpr (kSquares) st.sumsq += d * d;
  }
}

/// MIN or MAX (`want_min` picks the direction) over an INT64 argument
/// (imin_max) or a FLOAT64 one (fmin_max). Strict < / > against the current
/// extremum reproduces Value::Compare's "replace only when strictly better",
/// so ties keep the first-seen value.
template <typename At>
void AccumulateMinMax(At at, const SelIndex* gids, SelIndex n, bool want_min,
                      VAggState* states) {
  auto fold = [&](auto better) {
    for (SelIndex i = 0; i < n; ++i) {
      VAggState& st = states[gids[i]];
      const auto v = at(i);
      if constexpr (std::is_integral_v<decltype(v)>) {
        if (!st.has_minmax || better(v, st.imin_max)) st.imin_max = v;
      } else {
        if (!st.has_minmax || better(v, st.fmin_max)) st.fmin_max = v;
      }
      st.has_minmax = true;
    }
  };
  if (want_min) {
    fold([](auto v, auto cur) { return v < cur; });
  } else {
    fold([](auto v, auto cur) { return v > cur; });
  }
}

/// @}

}  // namespace dl2sql::db::vec
