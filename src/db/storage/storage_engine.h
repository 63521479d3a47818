/// \file storage_engine.h
/// \brief StorageEngine: the per-Database owner of the out-of-core machinery.
///
/// One engine bundles the shared BlockFile tablespace and the pinning
/// BufferPool, plus the knobs that shape paged tables and executor spills.
/// Paged tables (paged_table.h) and the grace-join / external-aggregation
/// spill paths all allocate blocks here, so one pool budget governs every
/// byte of cached block data in the database.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "db/storage/block_file.h"
#include "db/storage/buffer_pool.h"

namespace dl2sql::db::storage {

struct StorageOptions {
  /// Buffer-pool budget across all shards. Env: DL2SQL_BUFFER_POOL_BYTES.
  size_t pool_bytes = 256ull << 20;
  /// Fixed block size of the tablespace file.
  size_t block_bytes = 64 * 1024;
  /// Buffer-pool shard count (lock striping).
  int shards = 4;
  /// Rows per paged-table chunk (one chunk = one contiguous block run).
  int64_t chunk_rows = 4096;
  /// Tables whose logical payload is below this stay resident even in paged
  /// mode — paging tiny dimension tables costs more than it saves.
  /// Env: DL2SQL_PAGE_MIN_BYTES.
  size_t page_min_bytes = 1 << 20;
  /// Partition fan-out for grace hash join and the aggregation's overflow.
  /// Env: DL2SQL_SPILL_PARTITIONS.
  int spill_partitions = 16;
  /// Directory for the (unlinked) tablespace temp file; empty = TMPDIR or
  /// /tmp. Env: DL2SQL_STORAGE_DIR.
  std::string dir;

  /// Applies DL2SQL_BUFFER_POOL_BYTES / DL2SQL_PAGE_MIN_BYTES /
  /// DL2SQL_SPILL_PARTITIONS / DL2SQL_STORAGE_DIR on top of the defaults.
  /// Unparseable values are ignored with a warning, like the other env gates.
  static StorageOptions FromEnv();
};

class StorageEngine {
 public:
  static Result<std::shared_ptr<StorageEngine>> Create(
      const StorageOptions& options);

  const StorageOptions& options() const { return options_; }
  BlockFile& block_file() { return *file_; }
  BufferPool& pool() { return *pool_; }

  /// Allocates `n` blocks (free-listed ids first).
  std::vector<int64_t> AllocateBlocks(int64_t n);

  /// Returns blocks to the free list, dropping any cached frames first.
  void FreeBlocks(const std::vector<int64_t>& blocks);

  /// Publishes pool/file stats into the global MetricsRegistry
  /// (storage.* gauges) together with the process RSS gauges.
  void UpdateMetrics();

  /// Refreshes process.rss_bytes / process.peak_rss_bytes from
  /// /proc/self/statm and getrusage. Static so the bench can call it without
  /// an engine. Returns current RSS in bytes (0 if unavailable).
  static int64_t UpdateProcessRssMetrics();

 private:
  StorageEngine(StorageOptions options, std::unique_ptr<BlockFile> file);

  const StorageOptions options_;
  std::unique_ptr<BlockFile> file_;
  std::unique_ptr<BufferPool> pool_;
};

}  // namespace dl2sql::db::storage
