#include "cluster/hash_partitioner.h"

#include <cstring>
#include <string>

namespace dl2sql::cluster {

namespace {

/// Little-endian by construction (byte shifts, not memcpy), so the encoding
/// — and therefore the shard layout — is identical on any platform.
void AppendU64Le(uint64_t v, std::string* out) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void AppendU32Le(uint32_t v, std::string* out) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

/// Appends the canonical encoding of `v` to `out`.
void AppendCanonicalKey(const db::Value& v, std::string* out) {
  switch (v.type()) {
    case db::DataType::kNull:
      out->push_back('\x00');
      return;
    case db::DataType::kBool:
      out->push_back('\x01');
      out->push_back(v.bool_value() ? '\x01' : '\x00');
      return;
    case db::DataType::kInt64:
      out->push_back('\x02');
      AppendU64Le(static_cast<uint64_t>(v.int_value()), out);
      return;
    case db::DataType::kFloat64: {
      const double d = v.float_value();
      const int64_t as_int = static_cast<int64_t>(d);
      if (static_cast<double>(as_int) == d) {
        out->push_back('\x02');
        AppendU64Le(static_cast<uint64_t>(as_int), out);
        return;
      }
      uint64_t bits;
      std::memcpy(&bits, &d, sizeof(bits));
      out->push_back('\x03');
      AppendU64Le(bits, out);
      return;
    }
    case db::DataType::kString:
    case db::DataType::kBlob: {
      const std::string& s = v.string_value();
      out->push_back('\x04');
      AppendU32Le(static_cast<uint32_t>(s.size()), out);
      out->append(s);
      return;
    }
  }
}

}  // namespace

uint64_t PartitionHash(const db::Value& v) {
  std::string key;
  AppendCanonicalKey(v, &key);
  uint64_t h = 14695981039346656037ull;
  for (char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

int ShardIndexFor(const db::Value& v, int num_shards) {
  return static_cast<int>(PartitionHash(v) % static_cast<uint64_t>(num_shards));
}

}  // namespace dl2sql::cluster
