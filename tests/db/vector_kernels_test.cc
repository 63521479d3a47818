/// \file vector_kernels_test.cc
/// \brief Unit coverage for the batch-at-a-time kernels: selection-vector
/// refinement and set algebra, sel-compressed arithmetic (including the
/// modulo-by-zero error and div-by-zero -> inf semantics), canonical key
/// hashing/equality against row_key.h's byte encoding, string comparison
/// kernels, typed aggregate accumulation, and the empty-morsel /
/// sel-shrinks-to-zero edge cases.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "db/column.h"
#include "db/exec/row_key.h"
#include "db/exec/vector_batch.h"
#include "db/exec/vector_filter.h"
#include "db/exec/vector_kernels.h"
#include "db/expr.h"
#include "db/table.h"

namespace dl2sql::db::vec {
namespace {

std::vector<SelIndex> Identity(SelIndex n) {
  std::vector<SelIndex> sel(static_cast<size_t>(n));
  for (SelIndex i = 0; i < n; ++i) sel[i] = i;
  return sel;
}

std::vector<SelIndex> Survivors(const SelIndex* out, SelIndex count) {
  return std::vector<SelIndex>(out, out + count);
}

TEST(VectorRefineTest, DenseIntVsImmediateComparisons) {
  const std::vector<int64_t> vals = {5, -1, 7, 3, 7, 0};
  const NumOperand a = NumOperand::DenseInt(vals.data());
  const NumOperand b = NumOperand::ImmInt(3);
  const std::vector<SelIndex> sel = Identity(6);
  std::vector<SelIndex> out(6);

  SelIndex n = RefineCompareNum(BinaryOp::kLt, a, b, sel.data(), 6, out.data());
  EXPECT_EQ(Survivors(out.data(), n), (std::vector<SelIndex>{1, 5}));
  n = RefineCompareNum(BinaryOp::kGe, a, b, sel.data(), 6, out.data());
  EXPECT_EQ(Survivors(out.data(), n), (std::vector<SelIndex>{0, 2, 3, 4}));
  n = RefineCompareNum(BinaryOp::kEq, a, b, sel.data(), 6, out.data());
  EXPECT_EQ(Survivors(out.data(), n), (std::vector<SelIndex>{3}));
  n = RefineCompareNum(BinaryOp::kNe, a, b, sel.data(), 6, out.data());
  EXPECT_EQ(Survivors(out.data(), n), (std::vector<SelIndex>{0, 1, 2, 4, 5}));
}

TEST(VectorRefineTest, MixedIntFloatCanonicalizesThroughDouble) {
  // 3 == 3.0 and 2 < 2.5 must hold exactly like the row path's FastBinary.
  const std::vector<int64_t> ints = {3, 2, 4};
  const std::vector<double> floats = {3.0, 2.5, 3.5};
  const NumOperand a = NumOperand::DenseInt(ints.data());
  const NumOperand b = NumOperand::DenseFloat(floats.data());
  const std::vector<SelIndex> sel = Identity(3);
  std::vector<SelIndex> out(3);

  SelIndex n = RefineCompareNum(BinaryOp::kEq, a, b, sel.data(), 3, out.data());
  EXPECT_EQ(Survivors(out.data(), n), (std::vector<SelIndex>{0}));
  n = RefineCompareNum(BinaryOp::kLt, a, b, sel.data(), 3, out.data());
  EXPECT_EQ(Survivors(out.data(), n), (std::vector<SelIndex>{1}));
}

TEST(VectorRefineTest, NaNComparesFalseUnderEveryOperator) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> vals = {nan, 1.0};
  const NumOperand a = NumOperand::DenseFloat(vals.data());
  const NumOperand b = NumOperand::ImmFloat(1.0);
  const std::vector<SelIndex> sel = Identity(2);
  std::vector<SelIndex> out(2);
  for (BinaryOp op : {BinaryOp::kEq, BinaryOp::kLt, BinaryOp::kLe,
                      BinaryOp::kGt, BinaryOp::kGe}) {
    const SelIndex n =
        RefineCompareNum(op, a, b, sel.data(), 2, out.data());
    for (SelIndex k = 0; k < n; ++k) {
      EXPECT_NE(out[k], 0) << "NaN row must never survive";
    }
  }
  // != is true for NaN (NaN != x holds), matching double semantics.
  const SelIndex n =
      RefineCompareNum(BinaryOp::kNe, a, b, sel.data(), 2, out.data());
  EXPECT_EQ(Survivors(out.data(), n), (std::vector<SelIndex>{0}));
}

TEST(VectorRefineTest, EmptySelectionStaysEmpty) {
  const std::vector<int64_t> vals = {1, 2, 3};
  const NumOperand a = NumOperand::DenseInt(vals.data());
  const NumOperand b = NumOperand::ImmInt(0);
  std::vector<SelIndex> out(3);
  EXPECT_EQ(RefineCompareNum(BinaryOp::kGt, a, b, nullptr, 0, out.data()), 0);
}

TEST(VectorRefineTest, StringComparisonsMatchStdCompare) {
  const std::vector<std::string> names = {"apple", "pear", "apple", "zz", ""};
  const std::string imm = "apple";
  StrOperand col;
  col.base = names.data();
  StrOperand lit;
  lit.imm = &imm;
  const std::vector<SelIndex> sel = Identity(5);
  std::vector<SelIndex> out(5);

  SelIndex n =
      RefineCompareStr(BinaryOp::kEq, col, lit, sel.data(), 5, out.data());
  EXPECT_EQ(Survivors(out.data(), n), (std::vector<SelIndex>{0, 2}));
  n = RefineCompareStr(BinaryOp::kGt, col, lit, sel.data(), 5, out.data());
  EXPECT_EQ(Survivors(out.data(), n), (std::vector<SelIndex>{1, 3}));
  n = RefineCompareStr(BinaryOp::kLt, col, lit, sel.data(), 5, out.data());
  EXPECT_EQ(Survivors(out.data(), n), (std::vector<SelIndex>{4}));
}

TEST(VectorRefineTest, BoolColumnKeepsWantedRows) {
  const std::vector<uint8_t> bools = {1, 0, 1, 0};
  const std::vector<SelIndex> sel = Identity(4);
  std::vector<SelIndex> out(4);
  SelIndex n = RefineBool(bools.data(), true, sel.data(), 4, out.data());
  EXPECT_EQ(Survivors(out.data(), n), (std::vector<SelIndex>{0, 2}));
  n = RefineBool(bools.data(), false, sel.data(), 4, out.data());
  EXPECT_EQ(Survivors(out.data(), n), (std::vector<SelIndex>{1, 3}));
}

TEST(VectorSelAlgebraTest, UnionMergesAscendingWithoutDuplicates) {
  const std::vector<SelIndex> a = {0, 2, 5};
  const std::vector<SelIndex> b = {1, 2, 6};
  std::vector<SelIndex> out(6);
  const SelIndex n =
      SelUnion(a.data(), 3, b.data(), 3, out.data());
  EXPECT_EQ(Survivors(out.data(), n), (std::vector<SelIndex>{0, 1, 2, 5, 6}));
  EXPECT_EQ(SelUnion(nullptr, 0, nullptr, 0, out.data()), 0);
  const SelIndex one = SelUnion(a.data(), 3, nullptr, 0, out.data());
  EXPECT_EQ(Survivors(out.data(), one), a);
}

TEST(VectorSelAlgebraTest, DifferenceRemovesSubset) {
  const std::vector<SelIndex> sel = {0, 1, 2, 3, 4};
  const std::vector<SelIndex> sub = {1, 3};
  std::vector<SelIndex> out(5);
  const SelIndex n =
      SelDifference(sel.data(), 5, sub.data(), 2, out.data());
  EXPECT_EQ(Survivors(out.data(), n), (std::vector<SelIndex>{0, 2, 4}));
  // NOT over everything -> empty; NOT over nothing -> identity.
  const SelIndex none =
      SelDifference(sel.data(), 5, sel.data(), 5, out.data());
  EXPECT_EQ(none, 0);
  const SelIndex all = SelDifference(sel.data(), 5, nullptr, 0, out.data());
  EXPECT_EQ(Survivors(out.data(), all), sel);
}

TEST(VectorArithTest, IntOpsAndModuloByZeroError) {
  const std::vector<int64_t> lhs = {10, 7, -3};
  const NumOperand a = NumOperand::DenseInt(lhs.data());
  const NumOperand b = NumOperand::ImmInt(3);
  const std::vector<SelIndex> sel = Identity(3);
  std::vector<int64_t> out(3);
  ASSERT_TRUE(ArithInt(BinaryOp::kMod, a, b, sel.data(), 3, out.data()).ok());
  EXPECT_EQ(out[0], 10 % 3);
  EXPECT_EQ(out[1], 7 % 3);
  EXPECT_EQ(out[2], -3 % 3);
  ASSERT_TRUE(ArithInt(BinaryOp::kMul, a, b, sel.data(), 3, out.data()).ok());
  EXPECT_EQ(out[0], 30);

  const NumOperand zero = NumOperand::ImmInt(0);
  const Status s = ArithInt(BinaryOp::kMod, a, zero, sel.data(), 3, out.data());
  EXPECT_FALSE(s.ok());

  // A zero divisor on an UNSELECTED slot must not error: only selected rows
  // are evaluated.
  const std::vector<int64_t> divs = {2, 0, 5};
  const NumOperand d = NumOperand::DenseInt(divs.data());
  const std::vector<SelIndex> skip_zero = {0, 2};
  ASSERT_TRUE(
      ArithInt(BinaryOp::kMod, a, d, skip_zero.data(), 2, out.data()).ok());
}

TEST(VectorArithTest, FloatDivByZeroIsInfAndModIsFmod) {
  const std::vector<double> lhs = {1.0, -2.0, 7.5};
  const NumOperand a = NumOperand::DenseFloat(lhs.data());
  const NumOperand b = NumOperand::ImmFloat(0.0);
  const std::vector<SelIndex> sel = Identity(3);
  std::vector<double> out(3);
  ASSERT_TRUE(ArithFloat(BinaryOp::kDiv, a, b, sel.data(), 3, out.data()).ok());
  EXPECT_TRUE(std::isinf(out[0]) && out[0] > 0);
  EXPECT_TRUE(std::isinf(out[1]) && out[1] < 0);

  const NumOperand two = NumOperand::ImmFloat(2.0);
  ASSERT_TRUE(
      ArithFloat(BinaryOp::kMod, a, two, sel.data(), 3, out.data()).ok());
  EXPECT_DOUBLE_EQ(out[2], std::fmod(7.5, 2.0));
}

/// Hash/equality kernels must agree with row_key.h's byte encoding: two rows
/// compare equal iff their AppendKeyPart encodings are equal, and equal keys
/// hash equal (including the int64 <-> integral-float canonicalization).
TEST(VectorHashKeyTest, MatchesAppendKeyPartAcrossTypes) {
  Column ints = Column::Ints({1, 2, 3, 1});
  Column floats = Column::Floats({1.0, 2.5, 3.0, 1.0});
  Column strs = Column::Strings({"a", "b", "a", "a"});
  Column with_null{DataType::kInt64};
  ASSERT_TRUE(with_null.Append(Value::Int(7)).ok());
  ASSERT_TRUE(with_null.Append(Value::Null()).ok());
  ASSERT_TRUE(with_null.Append(Value::Int(7)).ok());
  ASSERT_TRUE(with_null.Append(Value::Null()).ok());

  auto encode = [](const std::vector<const Column*>& cols, int64_t row) {
    std::string key;
    for (const Column* c : cols) AppendKeyPart(*c, row, &key);
    return key;
  };
  auto hash_row = [](const std::vector<const Column*>& cols, int64_t row) {
    uint64_t h = 0;
    HashKeyRange(cols, row, row + 1, &h);
    return h;
  };
  const std::vector<const Column*> a = {&ints, &strs};
  const std::vector<const Column*> b = {&floats, &strs};
  for (int64_t ra = 0; ra < 4; ++ra) {
    for (int64_t rb = 0; rb < 4; ++rb) {
      const bool want = encode(a, ra) == encode(b, rb);
      bool equal = true;
      for (size_t c = 0; c < a.size(); ++c) {
        equal = equal && CanonicalKeyPartEqual(*a[c], ra, *b[c], rb);
      }
      EXPECT_EQ(equal, want) << "rows " << ra << " vs " << rb;
      if (want) {
        EXPECT_EQ(hash_row(a, ra), hash_row(b, rb));
      }
    }
  }

  // Batched hashing agrees with hashing one row at a time.
  uint64_t batch[4];
  HashKeyRange(a, 0, 4, batch);
  for (int64_t r = 0; r < 4; ++r) EXPECT_EQ(batch[r], hash_row(a, r));

  // A row is flagged iff one of its key parts is NULL.
  const std::vector<const Column*> nullable = {&ints, &with_null};
  uint8_t nulls[4];
  KeyNullRange(nullable, 0, 4, nulls);
  for (int64_t r = 0; r < 4; ++r) {
    EXPECT_EQ(nulls[r] != 0, !ints.IsValid(r) || !with_null.IsValid(r))
        << "row " << r;
  }
}

TEST(VectorAggTest, AccumulateAndMergeMatchScalarReference) {
  const std::vector<int64_t> vals = {5, 1, 9, 3};
  const std::vector<SelIndex> gids = {0, 1, 0, 1};
  auto at = [&](SelIndex i) { return vals[static_cast<size_t>(i)]; };
  std::vector<VAggState> st(2);
  AccumulateSum<true>(at, gids.data(), 4, st.data());
  EXPECT_EQ(st[0].count, 2);
  EXPECT_DOUBLE_EQ(st[0].sum, 14.0);
  EXPECT_DOUBLE_EQ(st[0].sumsq, 25.0 + 81.0);
  EXPECT_EQ(st[1].count, 2);
  EXPECT_DOUBLE_EQ(st[1].sum, 4.0);
  // SUM and AVG keep no sum of squares.
  std::vector<VAggState> plain(2);
  AccumulateSum<false>(at, gids.data(), 4, plain.data());
  EXPECT_DOUBLE_EQ(plain[0].sum, 14.0);
  EXPECT_DOUBLE_EQ(plain[0].sumsq, 0.0);

  std::vector<VAggState> mn(2), mx(2);
  AccumulateMinMax(at, gids.data(), 4, /*want_min=*/true, mn.data());
  AccumulateMinMax(at, gids.data(), 4, /*want_min=*/false, mx.data());
  EXPECT_EQ(mn[0].imin_max, 5);
  EXPECT_EQ(mx[0].imin_max, 9);
  EXPECT_EQ(mn[1].imin_max, 1);
  EXPECT_EQ(mx[1].imin_max, 3);

  const std::vector<uint8_t> flags = {1, 1, 0, 1};
  std::vector<VAggState> cb(2);
  AccumulateCountBool([&](SelIndex i) { return flags[static_cast<size_t>(i)]; },
                      gids.data(), 4, cb.data());
  EXPECT_EQ(cb[0].count, 1);  // row 2 is FALSE
  EXPECT_EQ(cb[1].count, 2);

  // Empty morsel: every kernel is a no-op at n == 0.
  VAggState empty;
  AccumulateCount(nullptr, 0, &empty);
  AccumulateSum<true>([](SelIndex) { return 1.0; }, nullptr, 0, &empty);
  EXPECT_EQ(empty.count, 0);
}

/// NULL-bearing and unsupported columns must force the row-path fallback:
/// the predicate compiler refuses them rather than silently mis-evaluating.
TEST(VectorFilterFallbackTest, NullBearingColumnsAreNotVectorizable) {
  TableSchema schema({{"a", DataType::kInt64}, {"b", DataType::kInt64}});
  Table t{schema};
  ASSERT_TRUE(t.AppendRow({Value::Int(1), Value::Int(2)}).ok());
  ASSERT_TRUE(t.AppendRow({Value::Null(), Value::Int(3)}).ok());

  const ExprPtr nullable =
      Expr::Binary(BinaryOp::kGt, Expr::Col("a"), Expr::Lit(Value::Int(0)));
  EXPECT_FALSE(IsVectorizablePredicate(*nullable, t));
  const ExprPtr clean =
      Expr::Binary(BinaryOp::kGt, Expr::Col("b"), Expr::Lit(Value::Int(0)));
  EXPECT_TRUE(IsVectorizablePredicate(*clean, t));
  // An AND with one non-vectorizable leg falls back as a whole.
  const ExprPtr both = Expr::Binary(
      BinaryOp::kAnd,
      Expr::Binary(BinaryOp::kGt, Expr::Col("b"), Expr::Lit(Value::Int(0))),
      Expr::Binary(BinaryOp::kGt, Expr::Col("a"), Expr::Lit(Value::Int(0))));
  EXPECT_FALSE(IsVectorizablePredicate(*both, t));
}

/// A conjunction whose first leg eliminates every row must still run the
/// remaining refinements over the empty selection without touching data.
TEST(VectorFilterFallbackTest, SelectionShrinksToZeroMidPipeline) {
  TableSchema schema({{"a", DataType::kInt64}});
  Table t{schema};
  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(t.AppendRow({Value::Int(i)}).ok());
  }
  const ExprPtr pred = Expr::Binary(
      BinaryOp::kAnd,
      Expr::Binary(BinaryOp::kLt, Expr::Col("a"), Expr::Lit(Value::Int(-5))),
      Expr::Binary(BinaryOp::kEq,
                   Expr::Binary(BinaryOp::kMod, Expr::Col("a"),
                                Expr::Lit(Value::Int(7))),
                   Expr::Lit(Value::Int(1))));
  std::vector<int64_t> rows;
  auto done = TryVectorFilter(*pred, t, nullptr, &rows);
  ASSERT_TRUE(done.ok()) << done.status().ToString();
  ASSERT_TRUE(*done);
  EXPECT_TRUE(rows.empty());
}

}  // namespace
}  // namespace dl2sql::db::vec
