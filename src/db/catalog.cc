#include "db/catalog.h"

#include <mutex>
#include <shared_mutex>

#include "common/string_util.h"

namespace dl2sql::db {

std::string Catalog::Key(const std::string& name) { return ToLower(name); }

void Catalog::SyncTrackedLocked(Entry& entry) {
  const int64_t now = MemTracker::Enabled() && entry.table != nullptr
                          ? static_cast<int64_t>(entry.table->ByteSize())
                          : 0;
  if (now != entry.tracked_bytes) {
    mem_.Consume(now - entry.tracked_bytes);
    entry.tracked_bytes = now;
  }
}

void Catalog::ReleaseTrackedLocked(Entry& entry) {
  if (entry.tracked_bytes != 0) {
    mem_.Release(entry.tracked_bytes);
    entry.tracked_bytes = 0;
  }
}

bool Catalog::IsSystemName(const std::string& name) {
  const std::string key = Key(name);
  return key.rfind("system.", 0) == 0 || key == "system";
}

Status Catalog::CreateTable(const std::string& name, TablePtr table,
                            bool temporary, bool if_not_exists) {
  std::unique_lock lock(mu_);
  const std::string key = Key(name);
  if (IsSystemName(key)) {
    return Status::InvalidArgument(
        "the 'system' schema is reserved for introspection tables; cannot "
        "create table '",
        name, "'");
  }
  if (views_.count(key) != 0) {
    return Status::AlreadyExists("a view named '", name, "' already exists");
  }
  if (tables_.count(key) != 0) {
    if (if_not_exists) return Status::OK();
    return Status::AlreadyExists("table '", name, "' already exists");
  }
  Entry& entry = (tables_[key] = Entry{.table = std::move(table),
                                        .temporary = temporary,
                                        .stats = std::nullopt,
                                        .indexes = {},
                                        .tracked_bytes = 0});
  SyncTrackedLocked(entry);
  BumpVersion(key);
  return Status::OK();
}

Status Catalog::CreateView(const std::string& name,
                           std::shared_ptr<SelectStmt> definition,
                           bool or_replace) {
  std::unique_lock lock(mu_);
  const std::string key = Key(name);
  if (IsSystemName(key)) {
    return Status::InvalidArgument(
        "the 'system' schema is reserved for introspection tables; cannot "
        "create view '",
        name, "'");
  }
  if (tables_.count(key) != 0) {
    return Status::AlreadyExists("a table named '", name, "' already exists");
  }
  if (views_.count(key) != 0 && !or_replace) {
    return Status::AlreadyExists("view '", name, "' already exists");
  }
  views_[key] = std::move(definition);
  BumpVersion(key);
  return Status::OK();
}

Result<TablePtr> Catalog::GetTable(const std::string& name) const {
  std::shared_lock lock(mu_);
  auto it = tables_.find(Key(name));
  if (it == tables_.end()) {
    return Status::NotFound("table '", name, "' does not exist");
  }
  return it->second.table;
}

Result<std::shared_ptr<SelectStmt>> Catalog::GetView(
    const std::string& name) const {
  std::shared_lock lock(mu_);
  auto it = views_.find(Key(name));
  if (it == views_.end()) {
    return Status::NotFound("view '", name, "' does not exist");
  }
  return it->second;
}

bool Catalog::HasTable(const std::string& name) const {
  std::shared_lock lock(mu_);
  return tables_.count(Key(name)) != 0;
}

bool Catalog::HasView(const std::string& name) const {
  std::shared_lock lock(mu_);
  return views_.count(Key(name)) != 0;
}

Status Catalog::DropTable(const std::string& name, bool if_exists) {
  std::unique_lock lock(mu_);
  auto it = tables_.find(Key(name));
  if (it == tables_.end()) {
    if (!if_exists) {
      return Status::NotFound("table '", name, "' does not exist");
    }
    return Status::OK();
  }
  ReleaseTrackedLocked(it->second);
  tables_.erase(it);
  BumpVersion(Key(name));
  return Status::OK();
}

Status Catalog::DropView(const std::string& name, bool if_exists) {
  std::unique_lock lock(mu_);
  if (views_.erase(Key(name)) == 0) {
    if (!if_exists) {
      return Status::NotFound("view '", name, "' does not exist");
    }
    return Status::OK();
  }
  BumpVersion(Key(name));
  return Status::OK();
}

void Catalog::DropAllTemporary() {
  std::unique_lock lock(mu_);
  for (auto it = tables_.begin(); it != tables_.end();) {
    if (it->second.temporary) {
      ReleaseTrackedLocked(it->second);
      BumpVersion(it->first);
      it = tables_.erase(it);
    } else {
      ++it;
    }
  }
}

Status Catalog::Analyze(const std::string& name) {
  std::unique_lock lock(mu_);
  auto it = tables_.find(Key(name));
  if (it == tables_.end()) {
    return Status::NotFound("table '", name, "' does not exist");
  }
  if (it->second.table->is_paged()) {
    // AnalyzeTable reads columns directly; stats collection is a one-shot
    // full pass, so materializing a copy is the honest cost either way.
    DL2SQL_ASSIGN_OR_RETURN(Table resident, it->second.table->Materialize());
    it->second.stats = AnalyzeTable(resident);
  } else {
    it->second.stats = AnalyzeTable(*it->second.table);
  }
  SyncTrackedLocked(it->second);
  // Fresh stats steer the optimizer differently: cached plans must re-plan.
  BumpVersion(it->first);
  return Status::OK();
}

const TableStats* Catalog::GetStats(const std::string& name) const {
  std::shared_lock lock(mu_);
  auto it = tables_.find(Key(name));
  if (it == tables_.end() || !it->second.stats) return nullptr;
  return &*it->second.stats;
}

void Catalog::InvalidateStats(const std::string& name) {
  std::unique_lock lock(mu_);
  auto it = tables_.find(Key(name));
  if (it != tables_.end()) {
    it->second.stats.reset();
    it->second.indexes.clear();
    // Every DML path ends here, so tracked storage bytes re-sync here too.
    SyncTrackedLocked(it->second);
    // DML invalidation: plans cached against this relation stop validating.
    BumpVersion(it->first);
  }
}

Status Catalog::CreateIndex(const std::string& table,
                            const std::string& column) {
  std::unique_lock lock(mu_);
  auto it = tables_.find(Key(table));
  if (it == tables_.end()) {
    return Status::NotFound("table '", table, "' does not exist");
  }
  DL2SQL_ASSIGN_OR_RETURN(int col, it->second.table->schema().Find(column));
  std::shared_ptr<HashIndex> index;
  if (it->second.table->is_paged()) {
    DL2SQL_ASSIGN_OR_RETURN(Table resident, it->second.table->Materialize());
    DL2SQL_ASSIGN_OR_RETURN(index, HashIndex::Build(resident, col));
  } else {
    DL2SQL_ASSIGN_OR_RETURN(index, HashIndex::Build(*it->second.table, col));
  }
  it->second.indexes[ToLower(column)] = std::move(index);
  BumpVersion(it->first);
  return Status::OK();
}

std::shared_ptr<HashIndex> Catalog::GetIndex(const std::string& table,
                                             const std::string& column) const {
  std::shared_lock lock(mu_);
  auto it = tables_.find(Key(table));
  if (it == tables_.end()) return nullptr;
  auto ix = it->second.indexes.find(ToLower(column));
  return ix == it->second.indexes.end() ? nullptr : ix->second;
}

std::vector<std::string> Catalog::TableNames() const {
  std::shared_lock lock(mu_);
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [k, _] : tables_) names.push_back(k);
  return names;
}

std::vector<std::string> Catalog::ViewNames() const {
  std::shared_lock lock(mu_);
  std::vector<std::string> names;
  names.reserve(views_.size());
  for (const auto& [k, _] : views_) names.push_back(k);
  return names;
}

bool Catalog::IsTemporary(const std::string& name) const {
  std::shared_lock lock(mu_);
  auto it = tables_.find(Key(name));
  return it != tables_.end() && it->second.temporary;
}

uint64_t Catalog::VersionOf(const std::string& name) const {
  std::shared_lock lock(mu_);
  const std::string key = Key(name);
  uint64_t version = 0;
  auto it = versions_.find(key);
  if (it != versions_.end()) version = it->second;
  // Virtual tables fold in the provider's own version so swapping a provider
  // (new schema, same name) invalidates plans compiled against the old one.
  auto vt = virtual_tables_.find(key);
  if (vt != virtual_tables_.end()) version += vt->second->version();
  return version;
}

Status Catalog::RegisterVirtualTable(
    std::shared_ptr<VirtualTableProvider> provider) {
  if (provider == nullptr) {
    return Status::InvalidArgument("null virtual-table provider");
  }
  const std::string key = Key(provider->name());
  if (!IsSystemName(key) || key == "system") {
    return Status::InvalidArgument("virtual table '", provider->name(),
                                   "' must live in the 'system' schema");
  }
  std::unique_lock lock(mu_);
  virtual_tables_[key] = std::move(provider);
  BumpVersion(key);
  return Status::OK();
}

void Catalog::UnregisterVirtualTable(const std::string& name) {
  std::unique_lock lock(mu_);
  const std::string key = Key(name);
  if (virtual_tables_.erase(key) != 0) BumpVersion(key);
}

std::shared_ptr<VirtualTableProvider> Catalog::GetVirtualTable(
    const std::string& name) const {
  std::shared_lock lock(mu_);
  auto it = virtual_tables_.find(Key(name));
  return it == virtual_tables_.end() ? nullptr : it->second;
}

bool Catalog::HasVirtualTable(const std::string& name) const {
  std::shared_lock lock(mu_);
  return virtual_tables_.count(Key(name)) != 0;
}

std::vector<std::string> Catalog::VirtualTableNames() const {
  std::shared_lock lock(mu_);
  std::vector<std::string> names;
  names.reserve(virtual_tables_.size());
  for (const auto& [k, _] : virtual_tables_) names.push_back(k);
  return names;
}

int64_t Catalog::TrackedBytes(const std::string& name) const {
  std::shared_lock lock(mu_);
  auto it = tables_.find(Key(name));
  return it == tables_.end() ? 0 : it->second.tracked_bytes;
}

uint64_t Catalog::TotalBytes() const {
  std::shared_lock lock(mu_);
  uint64_t bytes = 0;
  for (const auto& [_, e] : tables_) bytes += e.table->ByteSize();
  return bytes;
}

}  // namespace dl2sql::db
