/// \file buffer_pool_test.cc
/// \brief BufferPool behavior: pin counts, eviction, dirty write-back,
/// budget enforcement — serial and under 8-thread contention (this binary is
/// TSAN-pinned by name, see scripts/ci.sh) — and a paged table's column
/// reads, which pin only the blocks holding the columns they decode.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "db/storage/buffer_pool.h"
#include "db/storage/paged_table.h"
#include "db/storage/storage_engine.h"

namespace dl2sql::db::storage {
namespace {

/// Deterministic per-block content so any read can be verified.
std::string BlockContent(int64_t block, size_t len) {
  std::string s(len, '\0');
  for (size_t i = 0; i < len; ++i) {
    s[i] = static_cast<char>((block * 131 + static_cast<int64_t>(i) * 7) % 251);
  }
  return s;
}

std::shared_ptr<StorageEngine> MakeEngine(size_t pool_bytes, int shards,
                                          size_t block_bytes = 4096) {
  StorageOptions opts;
  opts.pool_bytes = pool_bytes;
  opts.block_bytes = block_bytes;
  opts.shards = shards;
  auto engine = StorageEngine::Create(opts);
  DL2SQL_CHECK(engine.ok()) << engine.status().ToString();
  return *engine;
}

TEST(BufferPoolTest, PutThenPinRoundTripsContent) {
  auto engine = MakeEngine(64 * 4096, 4);
  BufferPool& pool = engine->pool();
  const auto blocks = engine->AllocateBlocks(8);
  for (int64_t b : blocks) {
    const std::string content = BlockContent(b, pool.block_bytes());
    ASSERT_TRUE(pool.Put(b, content.data(), content.size()).ok());
  }
  for (int64_t b : blocks) {
    auto pin = pool.Pin(b);
    ASSERT_TRUE(pin.ok()) << pin.status().ToString();
    const std::string expect = BlockContent(b, pool.block_bytes());
    EXPECT_EQ(0, std::memcmp(pin->data(), expect.data(), pin->size()));
  }
}

TEST(BufferPoolTest, ShortPutIsZeroPaddedToBlockSize) {
  auto engine = MakeEngine(16 * 4096, 1);
  BufferPool& pool = engine->pool();
  const auto blocks = engine->AllocateBlocks(1);
  const std::string content = BlockContent(blocks[0], 100);
  ASSERT_TRUE(pool.Put(blocks[0], content.data(), content.size()).ok());
  auto pin = pool.Pin(blocks[0]);
  ASSERT_TRUE(pin.ok());
  ASSERT_EQ(pin->size(), pool.block_bytes());
  EXPECT_EQ(0, std::memcmp(pin->data(), content.data(), content.size()));
  for (size_t i = content.size(); i < pin->size(); ++i) {
    EXPECT_EQ(pin->data()[i], '\0') << "byte " << i;
  }
}

TEST(BufferPoolTest, DirtyFramesWriteBackThroughEviction) {
  // Budget of 4 frames, 32 dirty blocks: most must be evicted (with
  // write-back) before they are read again.
  auto engine = MakeEngine(4 * 4096, 1);
  BufferPool& pool = engine->pool();
  const auto blocks = engine->AllocateBlocks(32);
  for (int64_t b : blocks) {
    const std::string content = BlockContent(b, pool.block_bytes());
    ASSERT_TRUE(pool.Put(b, content.data(), content.size()).ok());
  }
  EXPECT_GT(pool.stats().evictions, 0);
  EXPECT_GT(pool.stats().writebacks, 0);
  for (int64_t b : blocks) {
    auto pin = pool.Pin(b);
    ASSERT_TRUE(pin.ok()) << pin.status().ToString();
    const std::string expect = BlockContent(b, pool.block_bytes());
    EXPECT_EQ(0, std::memcmp(pin->data(), expect.data(), pin->size()))
        << "block " << b;
  }
}

TEST(BufferPoolTest, PinnedFramesAreNotEvictableAndExhaustCleanly) {
  // Single shard, 2-frame budget: the third concurrent pin must fail
  // (everything else is pinned), and releasing a pin must make it succeed.
  auto engine = MakeEngine(2 * 4096, 1);
  BufferPool& pool = engine->pool();
  const auto blocks = engine->AllocateBlocks(3);
  for (int64_t b : blocks) {
    const std::string content = BlockContent(b, pool.block_bytes());
    ASSERT_TRUE(pool.Put(b, content.data(), content.size()).ok());
  }
  auto pin0 = pool.Pin(blocks[0]);
  ASSERT_TRUE(pin0.ok());
  auto pin1 = pool.Pin(blocks[1]);
  ASSERT_TRUE(pin1.ok());
  auto pin2 = pool.Pin(blocks[2]);
  ASSERT_FALSE(pin2.ok());
  EXPECT_EQ(pin2.status().code(), StatusCode::kResourceExhausted)
      << pin2.status().ToString();
  // Re-pinning an already-pinned block is a hit, not a new frame.
  auto again = pool.Pin(blocks[0]);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(pool.stats().pinned, 2);
  // Dropping one pin frees a frame for the blocked block.
  *pin1 = PinnedBlock();
  auto now_ok = pool.Pin(blocks[2]);
  ASSERT_TRUE(now_ok.ok()) << now_ok.status().ToString();
  const std::string expect = BlockContent(blocks[2], pool.block_bytes());
  EXPECT_EQ(0, std::memcmp(now_ok->data(), expect.data(), now_ok->size()));
}

TEST(BufferPoolTest, BudgetIsNeverExceeded) {
  const size_t budget = 8 * 4096;
  auto engine = MakeEngine(budget, 4);
  BufferPool& pool = engine->pool();
  const auto blocks = engine->AllocateBlocks(64);
  for (int64_t b : blocks) {
    const std::string content = BlockContent(b, pool.block_bytes());
    ASSERT_TRUE(pool.Put(b, content.data(), content.size()).ok());
    EXPECT_LE(pool.stats().frame_bytes, static_cast<int64_t>(budget));
  }
  for (int64_t b : blocks) {
    auto pin = pool.Pin(b);
    ASSERT_TRUE(pin.ok());
    EXPECT_LE(pool.stats().frame_bytes, static_cast<int64_t>(budget));
  }
}

TEST(BufferPoolTest, ConcurrentPinUnpinEvictIsSafeAndBudgeted) {
  constexpr int kThreads = 8;
  constexpr int kIters = 400;
  constexpr int64_t kBlocks = 48;
  const size_t budget = 12 * 4096;  // far fewer frames than blocks
  auto engine = MakeEngine(budget, 4);
  BufferPool& pool = engine->pool();
  const auto blocks = engine->AllocateBlocks(kBlocks);
  for (int64_t b : blocks) {
    const std::string content = BlockContent(b, pool.block_bytes());
    ASSERT_TRUE(pool.Put(b, content.data(), content.size()).ok());
  }

  std::atomic<int> corrupt{0};
  std::atomic<int> failures{0};
  std::atomic<int64_t> over_budget{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      uint64_t rng = 0x9e3779b97f4a7c15ull * static_cast<uint64_t>(t + 1);
      for (int i = 0; i < kIters; ++i) {
        rng = rng * 6364136223846793005ull + 1442695040888963407ull;
        const int64_t b = blocks[static_cast<size_t>(
            (rng >> 33) % static_cast<uint64_t>(kBlocks))];
        auto pin = pool.Pin(b);
        if (!pin.ok()) {
          // Transient exhaustion (every frame of the shard pinned by peers)
          // is legal; it must be the documented error and must not corrupt.
          if (pin.status().code() != StatusCode::kResourceExhausted) {
            failures.fetch_add(1);
          }
          continue;
        }
        const std::string expect = BlockContent(b, pool.block_bytes());
        if (std::memcmp(pin->data(), expect.data(), pin->size()) != 0) {
          corrupt.fetch_add(1);
        }
        if (pool.stats().frame_bytes > static_cast<int64_t>(budget)) {
          over_budget.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(corrupt.load(), 0);
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(over_budget.load(), 0);
  const auto stats = pool.stats();
  EXPECT_EQ(stats.pinned, 0);
  EXPECT_GT(stats.hits + stats.misses, 0);
  EXPECT_LE(stats.frame_bytes, static_cast<int64_t>(budget));
}

TEST(BufferPoolTest, DiscardDropsFramesWithoutWriteBack) {
  auto engine = MakeEngine(16 * 4096, 2);
  BufferPool& pool = engine->pool();
  const auto blocks = engine->AllocateBlocks(4);
  for (int64_t b : blocks) {
    const std::string content = BlockContent(b, pool.block_bytes());
    ASSERT_TRUE(pool.Put(b, content.data(), content.size()).ok());
  }
  const int64_t wb_before = pool.stats().writebacks;
  engine->FreeBlocks(blocks);  // discards cached frames, returns ids
  EXPECT_EQ(pool.stats().writebacks, wb_before);
  EXPECT_EQ(pool.stats().dirty, 0);
}

/// Every value of `c`, rendered.
std::vector<std::string> Render(const Column& c) {
  std::vector<std::string> out;
  for (int64_t r = 0; r < c.size(); ++r) {
    out.push_back(c.GetValue(r).ToString());
  }
  return out;
}

TEST(PagedTableTest, ColumnReadsPinOnlyTheirBlocks) {
  // One 1500-row chunk of ~40 KB over 4 KB blocks: every column's bytes
  // span fewer blocks than the chunk's.
  StorageOptions opts;
  opts.pool_bytes = 256 * 4096;
  opts.block_bytes = 4096;
  opts.shards = 1;
  auto engine = StorageEngine::Create(opts);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const TableSchema schema({{"id", DataType::kInt64},
                            {"val", DataType::kFloat64},
                            {"maybe", DataType::kInt64},
                            {"name", DataType::kString},
                            {"flag", DataType::kBool}});
  Table t{schema};
  for (int64_t i = 0; i < 1500; ++i) {
    ASSERT_TRUE(t.AppendRow({Value::Int(i), Value::Float(i * 0.25),
                             i % 3 == 0 ? Value::Null() : Value::Int(i * 11),
                             Value::String("name-" + std::to_string(i * 7) +
                                           std::string(12, 'n')),
                             Value::Bool(i % 2 == 0)})
                    .ok());
  }
  PagedTableBuilder builder(*engine, schema);
  ASSERT_TRUE(builder.Append(t).ok());
  auto data = builder.Finish();
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  const PagedTableData& paged = **data;
  ASSERT_EQ(paged.num_chunks(), 1);

  BufferPool& pool = (*engine)->pool();
  auto pins = [&] { return pool.stats().hits + pool.stats().misses; };
  int64_t before = pins();
  auto full = paged.ReadChunk(0);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  const int64_t full_pins = pins() - before;
  EXPECT_GT(full_pins, 5);
  for (int k = 0; k < schema.num_fields(); ++k) {
    before = pins();
    auto one = paged.ReadChunk(0, {k});
    ASSERT_TRUE(one.ok()) << one.status().ToString();
    EXPECT_LT(pins() - before, full_pins) << schema.field(k).name;
    ASSERT_EQ(one->size(), 1u);
    EXPECT_EQ(Render((*one)[0]), Render((*full)[static_cast<size_t>(k)]))
        << schema.field(k).name;
  }
  // Any order and subset; Gather and Materialize read the same columns.
  const std::vector<int> subset = {4, 0, 2};
  auto some = paged.ReadChunk(0, subset);
  auto gathered = paged.Gather({7, 3, 1499}, subset);
  auto all_rows = paged.Materialize(subset);
  ASSERT_TRUE(some.ok() && gathered.ok() && all_rows.ok());
  for (size_t i = 0; i < subset.size(); ++i) {
    const Column& want = (*full)[static_cast<size_t>(subset[i])];
    EXPECT_EQ(Render((*some)[i]), Render(want));
    EXPECT_EQ(Render((*all_rows)[i]), Render(want));
    EXPECT_EQ(Render((*gathered)[i]), Render(want.Take({7, 3, 1499})));
  }
  // A view of the subset reports and materializes only those columns.
  const Table view = Table::FromPaged(
      TableSchema({{"flag", DataType::kBool}, {"id", DataType::kInt64}}),
      *data, {4, 0});
  EXPECT_EQ(view.ByteSize(), t.column(4).ByteSize() + t.column(0).ByteSize());
  auto resident = view.Materialize();
  ASSERT_TRUE(resident.ok()) << resident.status().ToString();
  EXPECT_EQ(Render(resident->column(0)), Render(t.column(4)));
  EXPECT_EQ(Render(resident->column(1)), Render(t.column(0)));
}

}  // namespace
}  // namespace dl2sql::db::storage
