#include "db/exec/vector_kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/cache.h"
#include "db/exec/row_key.h"

namespace dl2sql::db::vec {

namespace {

/// Branchless compaction: writes the candidate row unconditionally and
/// advances the cursor only when the predicate held. The loop carries no
/// data-dependent branch, which keeps the selection pipeline throughput
/// bound by the comparison, not the branch predictor.
template <typename Keep>
SelIndex RefineLoop(const SelIndex* sel, SelIndex count, SelIndex* out,
                    Keep keep) {
  SelIndex m = 0;
  for (SelIndex k = 0; k < count; ++k) {
    const SelIndex r = sel[k];
    out[m] = r;
    m += keep(k, r) ? 1 : 0;
  }
  return m;
}

template <typename Cmp>
SelIndex RefineNumWith(const NumOperand& a, const NumOperand& b,
                       const SelIndex* sel, SelIndex count, SelIndex* out,
                       Cmp cmp) {
  // Hot shapes get dedicated loops over raw typed arrays so the operand
  // kind switch is hoisted out of the inner loop: dense-int column against
  // an int immediate (generated predicates), dense column against a
  // compressed intermediate, and dense against dense.
  using K = NumOperand::Kind;
  if (a.kind == K::kDenseInt && b.kind == K::kImmInt) {
    const int64_t* x = a.i64;
    const double y = static_cast<double>(b.imm_i);
    return RefineLoop(sel, count, out, [&](SelIndex, SelIndex r) {
      return cmp(static_cast<double>(x[r]), y);
    });
  }
  if (a.kind == K::kCompInt && b.kind == K::kImmInt) {
    const int64_t* x = a.i64;
    const double y = static_cast<double>(b.imm_i);
    return RefineLoop(sel, count, out, [&](SelIndex k, SelIndex) {
      return cmp(static_cast<double>(x[k]), y);
    });
  }
  if (a.kind == K::kDenseFloat && b.kind == K::kImmFloat) {
    const double* x = a.f64;
    const double y = b.imm_f;
    return RefineLoop(sel, count, out,
                      [&](SelIndex, SelIndex r) { return cmp(x[r], y); });
  }
  if (a.kind == K::kDenseInt && b.kind == K::kDenseInt) {
    const int64_t* x = a.i64;
    const int64_t* y = b.i64;
    return RefineLoop(sel, count, out, [&](SelIndex, SelIndex r) {
      return cmp(static_cast<double>(x[r]), static_cast<double>(y[r]));
    });
  }
  return RefineLoop(sel, count, out, [&](SelIndex k, SelIndex r) {
    return cmp(a.At(k, r), b.At(k, r));
  });
}

}  // namespace

SelIndex RefineCompareNum(BinaryOp op, const NumOperand& a,
                          const NumOperand& b, const SelIndex* sel,
                          SelIndex count, SelIndex* out) {
  switch (op) {
    case BinaryOp::kEq:
      return RefineNumWith(a, b, sel, count, out,
                           [](double x, double y) { return x == y; });
    case BinaryOp::kNe:
      return RefineNumWith(a, b, sel, count, out,
                           [](double x, double y) { return x != y; });
    case BinaryOp::kLt:
      return RefineNumWith(a, b, sel, count, out,
                           [](double x, double y) { return x < y; });
    case BinaryOp::kLe:
      return RefineNumWith(a, b, sel, count, out,
                           [](double x, double y) { return x <= y; });
    case BinaryOp::kGt:
      return RefineNumWith(a, b, sel, count, out,
                           [](double x, double y) { return x > y; });
    case BinaryOp::kGe:
      return RefineNumWith(a, b, sel, count, out,
                           [](double x, double y) { return x >= y; });
    default:
      return 0;  // callers only pass comparisons
  }
}

SelIndex RefineCompareStr(BinaryOp op, const StrOperand& a,
                          const StrOperand& b, const SelIndex* sel,
                          SelIndex count, SelIndex* out) {
  auto with = [&](auto keep_of_cmp) {
    return RefineLoop(sel, count, out, [&](SelIndex, SelIndex r) {
      return keep_of_cmp(a.At(r).compare(b.At(r)));
    });
  };
  switch (op) {
    case BinaryOp::kEq:
      return with([](int c) { return c == 0; });
    case BinaryOp::kNe:
      return with([](int c) { return c != 0; });
    case BinaryOp::kLt:
      return with([](int c) { return c < 0; });
    case BinaryOp::kLe:
      return with([](int c) { return c <= 0; });
    case BinaryOp::kGt:
      return with([](int c) { return c > 0; });
    case BinaryOp::kGe:
      return with([](int c) { return c >= 0; });
    default:
      return 0;
  }
}

SelIndex RefineBool(const uint8_t* bools, bool want, const SelIndex* sel,
                    SelIndex count, SelIndex* out) {
  const uint8_t target = want ? 1 : 0;
  return RefineLoop(sel, count, out, [&](SelIndex, SelIndex r) {
    return (bools[r] != 0 ? 1 : 0) == target;
  });
}

SelIndex SelUnion(const SelIndex* a, SelIndex an, const SelIndex* b,
                  SelIndex bn, SelIndex* out) {
  SelIndex i = 0, j = 0, m = 0;
  while (i < an && j < bn) {
    if (a[i] < b[j]) {
      out[m++] = a[i++];
    } else if (b[j] < a[i]) {
      out[m++] = b[j++];
    } else {
      out[m++] = a[i++];
      ++j;
    }
  }
  while (i < an) out[m++] = a[i++];
  while (j < bn) out[m++] = b[j++];
  return m;
}

SelIndex SelDifference(const SelIndex* sel, SelIndex count,
                       const SelIndex* sub, SelIndex sub_count,
                       SelIndex* out) {
  SelIndex j = 0, m = 0;
  for (SelIndex k = 0; k < count; ++k) {
    if (j < sub_count && sub[j] == sel[k]) {
      ++j;
      continue;
    }
    out[m++] = sel[k];
  }
  return m;
}

namespace {

/// Calls f with a reader (slot, row) -> int64 of `a`, so the operand kind
/// is dispatched once per call rather than once per element.
template <typename F>
Status WithIntReader(const NumOperand& a, F f) {
  using K = NumOperand::Kind;
  const int64_t* p = a.i64;
  switch (a.kind) {
    case K::kDenseInt:
      return f([p](SelIndex, SelIndex r) { return p[r]; });
    case K::kCompInt:
      return f([p](SelIndex k, SelIndex) { return p[k]; });
    case K::kImmInt: {
      const int64_t v = a.imm_i;
      return f([v](SelIndex, SelIndex) { return v; });
    }
    default:
      return f([&a](SelIndex k, SelIndex r) { return a.AtInt(k, r); });
  }
}

/// Calls f with a reader (slot, row) -> double of `a` (NumOperand::At's
/// conversions), dispatching the operand kind once per call.
template <typename F>
Status WithFloatReader(const NumOperand& a, F f) {
  using K = NumOperand::Kind;
  const int64_t* pi = a.i64;
  const double* pf = a.f64;
  switch (a.kind) {
    case K::kDenseInt:
      return f(
          [pi](SelIndex, SelIndex r) { return static_cast<double>(pi[r]); });
    case K::kDenseFloat:
      return f([pf](SelIndex, SelIndex r) { return pf[r]; });
    case K::kCompInt:
      return f(
          [pi](SelIndex k, SelIndex) { return static_cast<double>(pi[k]); });
    case K::kCompFloat:
      return f([pf](SelIndex k, SelIndex) { return pf[k]; });
    case K::kImmInt: {
      const double v = static_cast<double>(a.imm_i);
      return f([v](SelIndex, SelIndex) { return v; });
    }
    case K::kImmFloat: {
      const double v = a.imm_f;
      return f([v](SelIndex, SelIndex) { return v; });
    }
  }
  return Status::InternalError("unhandled numeric operand kind");
}

}  // namespace

Status ArithInt(BinaryOp op, const NumOperand& a, const NumOperand& b,
                const SelIndex* sel, SelIndex count, int64_t* out) {
  return WithIntReader(a, [&](auto x) {
    return WithIntReader(b, [&](auto y) -> Status {
      switch (op) {
        case BinaryOp::kAdd:
          for (SelIndex k = 0; k < count; ++k) {
            out[k] = x(k, sel[k]) + y(k, sel[k]);
          }
          return Status::OK();
        case BinaryOp::kSub:
          for (SelIndex k = 0; k < count; ++k) {
            out[k] = x(k, sel[k]) - y(k, sel[k]);
          }
          return Status::OK();
        case BinaryOp::kMul:
          for (SelIndex k = 0; k < count; ++k) {
            out[k] = x(k, sel[k]) * y(k, sel[k]);
          }
          return Status::OK();
        case BinaryOp::kMod:
          for (SelIndex k = 0; k < count; ++k) {
            const int64_t d = y(k, sel[k]);
            if (d == 0) return Status::InvalidArgument("modulo by zero");
            // x % -1 is 0; computing INT64_MIN % -1 traps on x86.
            out[k] = d == -1 ? 0 : x(k, sel[k]) % d;
          }
          return Status::OK();
        default:
          return Status::InternalError("unhandled int binary op");
      }
    });
  });
}

Status ArithFloat(BinaryOp op, const NumOperand& a, const NumOperand& b,
                  const SelIndex* sel, SelIndex count, double* out) {
  return WithFloatReader(a, [&](auto x) {
    return WithFloatReader(b, [&](auto y) -> Status {
      switch (op) {
        case BinaryOp::kAdd:
          for (SelIndex k = 0; k < count; ++k) {
            out[k] = x(k, sel[k]) + y(k, sel[k]);
          }
          return Status::OK();
        case BinaryOp::kSub:
          for (SelIndex k = 0; k < count; ++k) {
            out[k] = x(k, sel[k]) - y(k, sel[k]);
          }
          return Status::OK();
        case BinaryOp::kMul:
          for (SelIndex k = 0; k < count; ++k) {
            out[k] = x(k, sel[k]) * y(k, sel[k]);
          }
          return Status::OK();
        case BinaryOp::kDiv:
          for (SelIndex k = 0; k < count; ++k) {
            out[k] = x(k, sel[k]) / y(k, sel[k]);
          }
          return Status::OK();
        case BinaryOp::kMod:
          for (SelIndex k = 0; k < count; ++k) {
            out[k] = std::fmod(x(k, sel[k]), y(k, sel[k]));
          }
          return Status::OK();
        default:
          return Status::InternalError("unhandled float binary op");
      }
    });
  });
}

void NegInt(const NumOperand& a, const SelIndex* sel, SelIndex count,
            int64_t* out) {
  for (SelIndex k = 0; k < count; ++k) out[k] = -a.AtInt(k, sel[k]);
}

void NegFloat(const NumOperand& a, const SelIndex* sel, SelIndex count,
              double* out) {
  for (SelIndex k = 0; k < count; ++k) out[k] = -a.At(k, sel[k]);
}

// ------------------------------------------------- canonical key hashing ----

namespace {

/// splitmix64-style finalizer over (type tag, payload); the tag keeps the
/// cross-type non-equalities of row_key.h (bool 1 never collides with int 1).
inline uint64_t HashScalarPart(uint64_t tag, uint64_t payload) {
  uint64_t x = (tag + 0x9e3779b97f4a7c15ull) ^ payload;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

/// Defined-behavior integral-float canonicalization: row_key.h encodes
/// integral floats as int64 so INT64 keys join FLOAT64 keys. The range guard
/// (2^63 bounds are exactly representable) keeps the cast UBSan-clean for
/// NaN, infinities and out-of-range magnitudes, which all take the
/// non-integral branch.
inline bool IntegralFloat(double v, int64_t* out) {
  if (!(v >= -9223372036854775808.0 && v < 9223372036854775808.0)) {
    return false;
  }
  const int64_t as_int = static_cast<int64_t>(v);
  if (static_cast<double>(as_int) != v) return false;
  *out = as_int;
  return true;
}

inline uint64_t FloatBits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// The canonical decoded view of one key part — tag and payload match the
/// byte encoding of row_key.h AppendKeyPart, so view equality is exactly
/// encoded-string equality.
struct PartView {
  uint64_t tag = 0;  // 0 null, 1 bool, 2 int (canonical), 3 float, 4 string
  uint64_t scalar = 0;
  const std::string* str = nullptr;
};

inline PartView KeyPartView(const Column& col, int64_t row) {
  PartView v;
  if (!col.IsValid(row)) return v;  // tag 0
  const size_t i = static_cast<size_t>(row);
  switch (col.type()) {
    case DataType::kBool:
      v.tag = 1;
      v.scalar = col.bools()[i] != 0 ? 1 : 0;
      return v;
    case DataType::kInt64:
      v.tag = 2;
      v.scalar = static_cast<uint64_t>(col.ints()[i]);
      return v;
    case DataType::kFloat64: {
      const double d = col.floats()[i];
      int64_t as_int;
      if (IntegralFloat(d, &as_int)) {
        v.tag = 2;
        v.scalar = static_cast<uint64_t>(as_int);
      } else {
        v.tag = 3;
        v.scalar = FloatBits(d);
      }
      return v;
    }
    case DataType::kString:
    case DataType::kBlob:
      v.tag = 4;
      v.str = &col.strings()[i];
      return v;
    case DataType::kNull:
      return v;  // tag 0, same as AppendKeyPart
  }
  return v;
}

inline uint64_t PartHash(const PartView& v) {
  if (v.tag == 4) return HashScalarPart(4, Hash64(*v.str));
  return HashScalarPart(v.tag, v.scalar);
}

inline bool PartEqual(const PartView& a, const PartView& b) {
  if (a.tag != b.tag) return false;
  if (a.tag == 4) return *a.str == *b.str;
  return a.scalar == b.scalar;
}

}  // namespace

namespace {

/// Calls fn(i, part) with the canonical hash part of rows begin + i of
/// `c`, column-at-a-time with the type switch hoisted; the common no-null
/// int64 shape is a pure multiply-xor stream.
template <typename Fn>
void ForEachKeyPart(const Column& c, int64_t begin, int64_t end, Fn&& fn) {
  const int64_t n = end - begin;
  if (c.type() == DataType::kInt64 && !c.HasNulls()) {
    const int64_t* v = c.ints().data() + begin;
    for (int64_t i = 0; i < n; ++i) {
      fn(i, HashScalarPart(2, static_cast<uint64_t>(v[i])));
    }
    return;
  }
  if (c.type() == DataType::kFloat64 && !c.HasNulls()) {
    const double* v = c.floats().data() + begin;
    for (int64_t i = 0; i < n; ++i) {
      int64_t as_int;
      fn(i, IntegralFloat(v[i], &as_int)
                ? HashScalarPart(2, static_cast<uint64_t>(as_int))
                : HashScalarPart(3, FloatBits(v[i])));
    }
    return;
  }
  for (int64_t i = 0; i < n; ++i) fn(i, PartHash(KeyPartView(c, begin + i)));
}

}  // namespace

void HashKeyRange(const std::vector<const Column*>& cols, int64_t begin,
                  int64_t end, uint64_t* out) {
  const int64_t n = end - begin;
  for (int64_t i = 0; i < n; ++i) out[i] = kKeyHashSeed;
  for (const Column* c : cols) {
    ForEachKeyPart(*c, begin, end, [out](int64_t i, uint64_t part) {
      out[i] = CombineKeyHash(out[i], part);
    });
  }
}

void KeyPartHashRange(const Column& col, int64_t begin, int64_t end,
                      uint64_t* out) {
  ForEachKeyPart(col, begin, end,
                 [out](int64_t i, uint64_t part) { out[i] = part; });
}

uint64_t HashKeyRow(const std::vector<const Column*>& cols, int64_t row) {
  uint64_t h = kKeyHashSeed;
  for (const Column* c : cols) {
    h = CombineKeyHash(h, PartHash(KeyPartView(*c, row)));
  }
  return h;
}

void KeyNullRange(const std::vector<const Column*>& cols, int64_t begin,
                  int64_t end, uint8_t* out) {
  const int64_t n = end - begin;
  std::memset(out, 0, static_cast<size_t>(n));
  for (const Column* c : cols) {
    if (!c->HasNulls() && c->type() != DataType::kNull) continue;
    for (int64_t i = 0; i < n; ++i) {
      if (!c->IsValid(begin + i) || c->type() == DataType::kNull) out[i] = 1;
    }
  }
}

bool CanonicalKeyRowsEqual(const std::vector<const Column*>& a, int64_t ra,
                           const std::vector<const Column*>& b, int64_t rb) {
  for (size_t c = 0; c < a.size(); ++c) {
    if (!PartEqual(KeyPartView(*a[c], ra), KeyPartView(*b[c], rb))) {
      return false;
    }
  }
  return true;
}

bool CanonicalKeyPartEqual(const Column& a, int64_t ra, const Column& b,
                           int64_t rb) {
  return PartEqual(KeyPartView(a, ra), KeyPartView(b, rb));
}

void EncodeColumnKeysRange(const Column& col, int64_t begin, int64_t end,
                           std::vector<std::string>* out) {
  for (int64_t r = begin; r < end; ++r) {
    std::string k;
    if (col.IsValid(r)) AppendKeyPart(col, r, &k);
    out->push_back(std::move(k));  // empty = NULL, never joins
  }
}

}  // namespace dl2sql::db::vec
