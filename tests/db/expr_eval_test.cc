/// \file expr_eval_test.cc
/// \brief Value semantics, vectorized expression evaluation, NULL handling,
/// typed builtin bodies and type inference.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "common/logging.h"
#include "common/random.h"
#include "db/database.h"
#include "db/eval.h"
#include "db/exec/vector_filter.h"
#include "db/sql/parser.h"

namespace dl2sql::db {
namespace {

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Bool(true).type(), DataType::kBool);
  EXPECT_EQ(Value::Int(3).int_value(), 3);
  EXPECT_DOUBLE_EQ(Value::Float(2.5).float_value(), 2.5);
  EXPECT_EQ(Value::String("x").string_value(), "x");
  EXPECT_EQ(Value::Blob("ab").type(), DataType::kBlob);
}

TEST(ValueTest, CrossNumericCompare) {
  EXPECT_EQ(Value::Int(2).Compare(Value::Float(2.0)), 0);
  EXPECT_LT(Value::Int(1).Compare(Value::Float(1.5)), 0);
  EXPECT_GT(Value::Float(3.0).Compare(Value::Int(2)), 0);
  EXPECT_EQ(Value::String("a").Compare(Value::String("b")), -1);
  // NULLs sort first.
  EXPECT_LT(Value::Null().Compare(Value::Int(0)), 0);
}

TEST(ValueTest, NullNeverEqualsAnything) {
  EXPECT_FALSE(Value::Null().Equals(Value::Null()));
  EXPECT_FALSE(Value::Null().Equals(Value::Int(0)));
  EXPECT_TRUE(Value::Int(1).Equals(Value::Float(1.0)));
}

TEST(ValueTest, Coercions) {
  EXPECT_DOUBLE_EQ(*Value::Int(4).AsDouble(), 4.0);
  EXPECT_DOUBLE_EQ(*Value::Bool(true).AsDouble(), 1.0);
  EXPECT_EQ(*Value::Float(3.9).AsInt(), 3);
  EXPECT_FALSE(Value::String("x").AsDouble().ok());
}

TEST(EvalBinaryTest, ThreeValuedLogic) {
  const Value null = Value::Null();
  const Value t = Value::Bool(true);
  const Value f = Value::Bool(false);
  // FALSE AND NULL = FALSE; TRUE AND NULL = NULL.
  EXPECT_FALSE((*EvalValueBinary(BinaryOp::kAnd, f, null)).bool_value());
  EXPECT_TRUE((*EvalValueBinary(BinaryOp::kAnd, t, null)).is_null());
  // TRUE OR NULL = TRUE; FALSE OR NULL = NULL.
  EXPECT_TRUE((*EvalValueBinary(BinaryOp::kOr, t, null)).bool_value());
  EXPECT_TRUE((*EvalValueBinary(BinaryOp::kOr, f, null)).is_null());
  // Comparisons with NULL are NULL.
  EXPECT_TRUE((*EvalValueBinary(BinaryOp::kEq, null, t)).is_null());
}

TEST(EvalBinaryTest, ArithmeticTyping) {
  EXPECT_EQ((*EvalValueBinary(BinaryOp::kAdd, Value::Int(2), Value::Int(3)))
                .type(),
            DataType::kInt64);
  EXPECT_EQ((*EvalValueBinary(BinaryOp::kAdd, Value::Int(2), Value::Float(3)))
                .type(),
            DataType::kFloat64);
  // Division is always float (ClickHouse semantics).
  const Value div = *EvalValueBinary(BinaryOp::kDiv, Value::Int(7), Value::Int(2));
  EXPECT_EQ(div.type(), DataType::kFloat64);
  EXPECT_DOUBLE_EQ(div.float_value(), 3.5);
  EXPECT_EQ((*EvalValueBinary(BinaryOp::kMod, Value::Int(7), Value::Int(3)))
                .int_value(),
            1);
  EXPECT_FALSE(EvalValueBinary(BinaryOp::kMod, Value::Int(1), Value::Int(0)).ok());
}

class EvalFixture : public ::testing::Test {
 protected:
  EvalFixture() {
    TableSchema schema({{"a", DataType::kInt64},
                        {"b", DataType::kFloat64},
                        {"s", DataType::kString}});
    table_ = Table(schema);
    DL2SQL_CHECK(table_.AppendRow({Value::Int(1), Value::Float(0.5),
                                   Value::String("x")}).ok());
    DL2SQL_CHECK(table_.AppendRow({Value::Int(2), Value::Float(1.5),
                                   Value::String("y")}).ok());
    DL2SQL_CHECK(table_.AppendRow({Value::Int(3), Value::Null(),
                                   Value::String("z")}).ok());
    ctx_.udfs = &udfs_;
  }

  ColumnHandle Eval(const std::string& expr) {
    auto e = sql::ParseExpression(expr);
    DL2SQL_CHECK(e.ok()) << e.status().ToString();
    auto col = EvalExpr(**e, table_, &ctx_);
    DL2SQL_CHECK(col.ok()) << col.status().ToString();
    return *col;
  }

  Table table_;
  UdfRegistry udfs_;
  EvalContext ctx_;
};

TEST_F(EvalFixture, ColumnRefAliasesInput) {
  ColumnHandle c = Eval("a");
  EXPECT_EQ(c->type(), DataType::kInt64);
  EXPECT_EQ(c->ints()[2], 3);
}

TEST_F(EvalFixture, VectorizedArithmetic) {
  ColumnHandle c = Eval("a * 2 + 1");
  EXPECT_EQ(c->type(), DataType::kInt64);
  EXPECT_EQ(c->ints()[1], 5);
}

TEST_F(EvalFixture, NullPropagationInColumns) {
  ColumnHandle c = Eval("b + 1");
  EXPECT_TRUE(c->IsValid(0));
  EXPECT_FALSE(c->IsValid(2));  // NULL row propagates
}

TEST_F(EvalFixture, StringComparisonVectorized) {
  ColumnHandle c = Eval("s >= 'y'");
  EXPECT_EQ(c->type(), DataType::kBool);
  EXPECT_EQ(c->bools()[0], 0);
  EXPECT_EQ(c->bools()[1], 1);
  EXPECT_EQ(c->bools()[2], 1);
}

TEST_F(EvalFixture, BuiltinFunctionOverColumn) {
  ColumnHandle c = Eval("greatest(0, a - 2)");
  EXPECT_DOUBLE_EQ(c->GetValue(0).float_value(), 0.0);
  EXPECT_DOUBLE_EQ(c->GetValue(2).float_value(), 1.0);
}

TEST_F(EvalFixture, FilterRowsNullIsFalse) {
  auto e = sql::ParseExpression("b < 100");
  auto rows = FilterRows(**e, table_, &ctx_);
  ASSERT_TRUE(rows.ok());
  // Row 2 has NULL b: excluded.
  EXPECT_EQ(*rows, (std::vector<int64_t>{0, 1}));
}

TEST_F(EvalFixture, FilterRequiresBool) {
  auto e = sql::ParseExpression("a + 1");
  EXPECT_TRUE(FilterRows(**e, table_, &ctx_).status().IsTypeError());
}

TEST_F(EvalFixture, EmptyInputStaysTyped) {
  Table empty{table_.schema()};
  auto e = sql::ParseExpression("a = 1");
  auto col = EvalExpr(**e, empty, &ctx_);
  ASSERT_TRUE(col.ok());
  EXPECT_EQ((*col)->type(), DataType::kBool);
  EXPECT_EQ((*col)->size(), 0);
}

TEST_F(EvalFixture, UnknownFunctionFails) {
  auto e = sql::ParseExpression("nosuchfn(a)");
  EXPECT_FALSE(EvalExpr(**e, table_, &ctx_).ok());
}

TEST_F(EvalFixture, ArityChecked) {
  auto e = sql::ParseExpression("sqrt(a, b)");
  EXPECT_FALSE(EvalExpr(**e, table_, &ctx_).ok());
}

TEST_F(EvalFixture, InListEval) {
  ColumnHandle c = Eval("a IN (1, 3)");
  EXPECT_EQ(c->bools()[0], 1);
  EXPECT_EQ(c->bools()[1], 0);
  EXPECT_EQ(c->bools()[2], 1);
}

TEST_F(EvalFixture, TypeInference) {
  auto check = [&](const std::string& expr, DataType expected) {
    auto e = sql::ParseExpression(expr);
    ASSERT_TRUE(e.ok());
    auto t = InferExprType(**e, table_.schema(), &udfs_);
    ASSERT_TRUE(t.ok()) << expr;
    EXPECT_EQ(*t, expected) << expr;
  };
  check("a", DataType::kInt64);
  check("b", DataType::kFloat64);
  check("a + 1", DataType::kInt64);
  check("a + b", DataType::kFloat64);
  check("a / 2", DataType::kFloat64);
  check("a % 2", DataType::kInt64);
  check("a > b", DataType::kBool);
  check("NOT (a > b)", DataType::kBool);
  check("s IN ('x')", DataType::kBool);
  check("count(*)", DataType::kInt64);
  check("sum(a)", DataType::kFloat64);
  check("min(s)", DataType::kString);
}

// ----------------------------------------------------- typed builtins ----

/// NULL-free random column drawn from a small domain, so ties are common:
/// INT64 values in [-6, 6] plus values past 2^53 that tie once read as
/// double; FLOAT64 values with negatives, -0.0, 0.0 and NaN. `divisor`
/// keeps every value's integer truncation off 0.
Column RandomNumeric(Rng* rng, DataType type, int64_t n, bool divisor) {
  const int64_t big = int64_t{1} << 53;
  if (type == DataType::kInt64) {
    const std::vector<int64_t> pool = {-6, -3, -1, 1, 2, 5, 6, big, big + 1,
                                       -big - 1};
    std::vector<int64_t> v;
    for (int64_t i = 0; i < n; ++i) {
      int64_t x = pool[static_cast<size_t>(
          rng->UniformInt(0, static_cast<int64_t>(pool.size()) - 1))];
      if (!divisor && rng->UniformInt(0, 3) == 0) x = 0;
      v.push_back(x);
    }
    return Column::Ints(std::move(v));
  }
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> pool =
      divisor ? std::vector<double>{-2.5, -1.0, 1.5, 3.0, 7.75}
              : std::vector<double>{-2.5, -0.0, 0.0, 1.0, 1.0, 3.5, nan,
                                    -7.25, 0.5};
  std::vector<double> v;
  for (int64_t i = 0; i < n; ++i) {
    v.push_back(pool[static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(pool.size()) - 1))]);
  }
  return Column::Floats(std::move(v));
}

/// The column EvalFuncCall's row loop fills with `udf`'s row body.
Result<Column> RowBodyColumn(const ScalarUdf& udf,
                             const std::vector<const Column*>& args) {
  const int64_t n = args[0]->size();
  Column out(udf.return_type);
  std::vector<Value> row(args.size());
  for (int64_t i = 0; i < n; ++i) {
    for (size_t a = 0; a < args.size(); ++a) row[a] = args[a]->GetValue(i);
    DL2SQL_ASSIGN_OR_RETURN(Value v, udf.fn(row));
    DL2SQL_RETURN_NOT_OK(out.Append(v));
  }
  return out;
}

/// Same status, or same type and bytes (floats compared bitwise, so -0.0
/// and NaN payloads count).
void ExpectSameColumn(const Result<Column>& a, const Result<Column>& b,
                      const std::string& what) {
  ASSERT_EQ(a.ok(), b.ok()) << what << ": " << a.status().ToString() << " vs "
                            << b.status().ToString();
  if (!a.ok()) {
    EXPECT_EQ(a.status().ToString(), b.status().ToString()) << what;
    return;
  }
  ASSERT_EQ(a->type(), b->type()) << what;
  ASSERT_EQ(a->size(), b->size()) << what;
  EXPECT_TRUE(a->validity().empty() && b->validity().empty()) << what;
  if (a->type() == DataType::kInt64) {
    EXPECT_EQ(a->ints(), b->ints()) << what;
  } else if (a->size() > 0) {
    ASSERT_EQ(a->type(), DataType::kFloat64) << what;
    EXPECT_EQ(0, std::memcmp(a->floats().data(), b->floats().data(),
                             a->floats().size() * sizeof(double)))
        << what;
  }
}

TEST(TypedBuiltinTest, ColumnBodiesMatchRowBodiesByteForByte) {
  UdfRegistry udfs;
  Rng rng(17);
  const DataType types[] = {DataType::kInt64, DataType::kFloat64};
  auto check = [&](const std::string& name,
                   const std::vector<const Column*>& args) {
    auto udf = udfs.Find(name);
    ASSERT_TRUE(udf.ok());
    ASSERT_NE((*udf)->column_fn, nullptr) << name;
    ExpectSameColumn((*udf)->column_fn(args), RowBodyColumn(**udf, args),
                     name + "/" + std::to_string(args.size()) + " args/" +
                         std::to_string(args[0]->size()) + " rows");
  };
  for (int64_t n : {0, 1, 300}) {
    for (const char* name :
         {"abs", "sqrt", "exp", "ln", "floor", "ceil", "round"}) {
      for (DataType t : types) {
        const Column x = RandomNumeric(&rng, t, n, false);
        check(name, {&x});
      }
    }
    for (const char* name : {"intDiv", "modulo"}) {
      for (DataType ta : types) {
        for (DataType tb : types) {
          const Column a = RandomNumeric(&rng, ta, n, false);
          const Column b = RandomNumeric(&rng, tb, n, true);
          check(name, {&a, &b});
        }
      }
    }
    for (const char* name : {"greatest", "least"}) {
      for (size_t arity = 1; arity <= 3; ++arity) {
        for (int mix = 0; mix < 4; ++mix) {
          std::vector<Column> cols;
          for (size_t a = 0; a < arity; ++a) {
            cols.push_back(RandomNumeric(&rng, types[(mix >> a) & 1], n,
                                         false));
          }
          std::vector<const Column*> args;
          for (const Column& c : cols) args.push_back(&c);
          check(name, args);
        }
      }
    }
  }
  // Errors: the first failing row's status, as the row body reports it.
  const int64_t min = std::numeric_limits<int64_t>::min();
  const Column num = Column::Ints({7, min, 9, 4});
  const Column zero = Column::Ints({2, 3, 0, 0});
  const Column minus_one = Column::Ints({1, -1, -1, 2});
  check("intDiv", {&num, &zero});
  check("modulo", {&num, &zero});
  check("intDiv", {&num, &minus_one});
  check("modulo", {&num, &minus_one});
}

TEST_F(EvalFixture, TypedBodyRunsOnlyOverNullFreeNumericArguments) {
  auto builtin = udfs_.Find("greatest");
  ASSERT_TRUE(builtin.ok());
  ScalarUdf counted = **builtin;
  int row_calls = 0, column_calls = 0;
  counted.fn = [&, fn = counted.fn](const std::vector<Value>& args) {
    ++row_calls;
    return fn(args);
  };
  counted.column_fn = [&, fn = counted.column_fn](
                          const std::vector<const Column*>& args) {
    ++column_calls;
    return fn(args);
  };
  udfs_.Register(counted);

  ColumnHandle typed = Eval("greatest(a, 1.5)");
  EXPECT_EQ(column_calls, 1);
  EXPECT_EQ(row_calls, 0);
  EXPECT_EQ(typed->floats(), (std::vector<double>{1.5, 2.0, 3.0}));

  ColumnHandle with_null = Eval("greatest(b, 1)");  // b is NULL in row 2
  EXPECT_EQ(column_calls, 1);
  EXPECT_EQ(row_calls, 3);
  EXPECT_DOUBLE_EQ(with_null->GetValue(2).float_value(), 1.0);

  Eval("greatest(a > 1, 0)");  // a BOOL argument
  EXPECT_EQ(column_calls, 1);
  EXPECT_EQ(row_calls, 6);
}

TEST_F(EvalFixture, ReRegisteredBuiltinRunsItsOwnBody) {
  ScalarUdf mine;
  mine.name = "greatest";
  mine.return_type = DataType::kFloat64;
  mine.fn = [](const std::vector<Value>&) -> Result<Value> {
    return Value::Float(42.0);
  };
  udfs_.Register(mine);
  ColumnHandle c = Eval("greatest(a, 1)");
  EXPECT_EQ(c->floats(), (std::vector<double>{42.0, 42.0, 42.0}));
}

TEST(IntegerOverflowTest, MinInt64ByMinusOneNeitherTrapsNorWraps) {
  const int64_t min = std::numeric_limits<int64_t>::min();
  // Row path.
  UdfRegistry udfs;
  EXPECT_EQ(EvalValueBinary(BinaryOp::kMod, Value::Int(min), Value::Int(-1))
                ->int_value(),
            0);
  const std::vector<Value> args = {Value::Int(min), Value::Int(-1)};
  EXPECT_TRUE((*udfs.Find("intDiv"))->fn(args).status().IsInvalidArgument());
  EXPECT_EQ((*udfs.Find("modulo"))->fn(args)->int_value(), 0);

  // Column path.
  TableSchema schema({{"x", DataType::kInt64}});
  Table t(schema);
  for (int64_t v : {min, int64_t{7}, int64_t{-8}}) {
    ASSERT_TRUE(t.AppendRow({Value::Int(v)}).ok());
  }
  EvalContext ctx;
  ctx.udfs = &udfs;
  auto eval = [&](const std::string& sql) {
    auto e = sql::ParseExpression(sql);
    DL2SQL_CHECK(e.ok()) << e.status().ToString();
    return EvalExpr(**e, t, &ctx);
  };
  for (const char* sql : {"x % -1", "modulo(x, -1)"}) {
    auto c = eval(sql);
    ASSERT_TRUE(c.ok()) << sql << ": " << c.status().ToString();
    EXPECT_EQ((*c)->ints(), (std::vector<int64_t>{0, 0, 0})) << sql;
  }
  EXPECT_TRUE(eval("intDiv(x, -1)").status().IsInvalidArgument());

  // Vector filter.
  ctx.vectorized = true;
  auto pred = sql::ParseExpression("x % -1 = 0");
  ASSERT_TRUE(pred.ok());
  ASSERT_TRUE(vec::IsVectorizablePredicate(**pred, t));
  auto rows = FilterRows(**pred, t, &ctx);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(*rows, (std::vector<int64_t>{0, 1, 2}));

  // One SQL statement.
  Database db;
  auto div = db.Execute("SELECT intDiv(-9223372036854775807 - 1, -1) AS x");
  EXPECT_TRUE(div.status().IsInvalidArgument()) << div.status().ToString();
  auto mod = db.Execute(
      "SELECT modulo(-9223372036854775807 - 1, -1) AS x, "
      "(-9223372036854775807 - 1) % -1 AS y");
  ASSERT_TRUE(mod.ok()) << mod.status().ToString();
  EXPECT_EQ(mod->column(0).GetValue(0).ToString(), "0");
  EXPECT_EQ(mod->column(1).GetValue(0).ToString(), "0");
}

TEST(ExprUtilTest, SplitAndCombineConjuncts) {
  auto e = sql::ParseExpression("a AND b AND (c OR d)");
  std::vector<ExprPtr> parts;
  SplitConjuncts(*e, &parts);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[2]->ToString(), "(c OR d)");
  ExprPtr combined = CombineConjuncts(parts);
  std::vector<ExprPtr> again;
  SplitConjuncts(combined, &again);
  EXPECT_EQ(again.size(), 3u);
  // Empty conjunct list is literal TRUE.
  EXPECT_EQ(CombineConjuncts({})->literal.bool_value(), true);
}

TEST(ExprUtilTest, CloneIsDeep) {
  auto e = sql::ParseExpression("a + b");
  ExprPtr clone = (*e)->Clone();
  clone->children[0]->column_name = "zzz";
  EXPECT_EQ((*e)->children[0]->column_name, "a");
}

}  // namespace
}  // namespace dl2sql::db
