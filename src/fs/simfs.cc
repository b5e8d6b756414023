#include "fs/simfs.h"

#include <algorithm>
#include <cassert>
#include <filesystem>
#include <fstream>

#include "sim/fault.h"

namespace kvaccel::fs {

// ---------------- SimFs ----------------

SimFs::SimFs(ssd::HybridSsd* ssd, int nsid, uint64_t writeback_chunk)
    : ssd_(ssd), nsid_(nsid), writeback_chunk_(writeback_chunk) {
  total_sectors_ = ssd->BlockCapacitySectors(nsid);
  free_sectors_ = total_sectors_;
  free_map_[0] = total_sectors_;
}

Status SimFs::AllocSectors(uint64_t sectors, std::vector<Extent>* out) {
  if (sectors > free_sectors_) {
    return Status::NoSpace("file system full");
  }
  uint64_t need = sectors;
  // First-fit over the free map; consumes runs front-to-back.
  while (need > 0) {
    assert(!free_map_.empty());
    auto it = free_map_.begin();
    uint64_t lba = it->first;
    uint64_t len = it->second;
    uint64_t take = std::min(len, need);
    free_map_.erase(it);
    if (take < len) free_map_[lba + take] = len - take;
    if (!out->empty() && out->back().lba + out->back().sectors == lba) {
      out->back().sectors += take;
    } else {
      out->push_back({lba, take});
    }
    need -= take;
  }
  free_sectors_ -= sectors;
  return Status::OK();
}

void SimFs::FreeExtents(const std::vector<Extent>& extents) {
  for (const Extent& e : extents) {
    if (e.sectors == 0) continue;
    free_sectors_ += e.sectors;
    // Coalesce with neighbours.
    uint64_t lba = e.lba;
    uint64_t len = e.sectors;
    auto next = free_map_.lower_bound(lba);
    if (next != free_map_.end() && lba + len == next->first) {
      len += next->second;
      next = free_map_.erase(next);
    }
    if (next != free_map_.begin()) {
      auto prev = std::prev(next);
      if (prev->first + prev->second == lba) {
        lba = prev->first;
        len += prev->second;
        free_map_.erase(prev);
      }
    }
    free_map_[lba] = len;
  }
}

Status SimFs::NewWritableFile(const std::string& name,
                              std::unique_ptr<WritableFile>* file) {
  auto it = files_.find(name);
  if (it != files_.end()) {
    // Recreate semantics (O_TRUNC): free the old storage.
    for (const Extent& e : it->second->extents) {
      ssd_->BlockTrim(nsid_, e.lba, e.sectors);
    }
    FreeExtents(it->second->extents);
    files_.erase(it);
  }
  auto inode = std::make_shared<Inode>();
  inode->name = name;
  inode->open_for_write = true;
  files_[name] = inode;
  *file = std::make_unique<WritableFile>(this, inode);
  return Status::OK();
}

Status SimFs::NewRandomAccessFile(
    const std::string& name, std::unique_ptr<RandomAccessFile>* file) const {
  auto it = files_.find(name);
  if (it == files_.end()) return Status::NotFound(name);
  *file = std::make_unique<RandomAccessFile>(const_cast<SimFs*>(this),
                                             it->second);
  return Status::OK();
}

Status SimFs::DeleteFile(const std::string& name) {
  auto it = files_.find(name);
  if (it == files_.end()) return Status::NotFound(name);
  // TRIM the file's sectors so the FTL learns they are dead (reduces GC
  // relocation work — the SSD-friendly behaviour of a real ext4 discard).
  for (const Extent& e : it->second->extents) {
    ssd_->BlockTrim(nsid_, e.lba, e.sectors);
  }
  FreeExtents(it->second->extents);
  it->second->extents.clear();
  files_.erase(it);
  return Status::OK();
}

Status SimFs::RenameFile(const std::string& from, const std::string& to) {
  auto it = files_.find(from);
  if (it == files_.end()) return Status::NotFound(from);
  std::shared_ptr<Inode> inode = it->second;
  files_.erase(it);
  auto old = files_.find(to);
  if (old != files_.end()) {
    for (const Extent& e : old->second->extents) {
      ssd_->BlockTrim(nsid_, e.lba, e.sectors);
    }
    FreeExtents(old->second->extents);
    files_.erase(old);
  }
  inode->name = to;
  files_[to] = inode;
  return Status::OK();
}

bool SimFs::FileExists(const std::string& name) const {
  return files_.count(name) > 0;
}

Status SimFs::GetFileSize(const std::string& name, uint64_t* logical,
                          uint64_t* physical) const {
  auto it = files_.find(name);
  if (it == files_.end()) return Status::NotFound(name);
  *logical = it->second->logical_size;
  if (physical != nullptr) *physical = it->second->data.size();
  return Status::OK();
}

void SimFs::DropAllDirty() {
  for (auto& [name, inode] : files_) {
    assert(inode->dirty_physical <= inode->data.size());
    inode->data.resize(inode->data.size() - inode->dirty_physical);
    inode->logical_size -=
        std::min(inode->logical_size, inode->dirty_logical);
    inode->dirty_physical = 0;
    inode->dirty_logical = 0;
    // Bytes that were written back but never covered by a BlockFlush sat in
    // the device write cache; the torn-writeback fault loses them too.
    if (inode->unsynced_physical > 0 &&
        sim::FaultAt(ssd_->env(), "simfs.powercut.torn")) {
      inode->data.resize(inode->data.size() -
                         std::min<uint64_t>(inode->data.size(),
                                            inode->unsynced_physical));
      inode->logical_size -=
          std::min(inode->logical_size, inode->unsynced_logical);
    }
    inode->unsynced_physical = 0;
    inode->unsynced_logical = 0;
  }
}

void SimFs::MarkAllSynced() {
  for (auto& [name, inode] : files_) {
    inode->unsynced_logical = 0;
    inode->unsynced_physical = 0;
  }
}

Status SimFs::DumpToHostDir(const std::string& dir) const {
  namespace stdfs = std::filesystem;
  std::error_code ec;
  stdfs::create_directories(dir, ec);
  if (ec) return Status::IOError("create " + dir + ": " + ec.message());
  std::ofstream index(stdfs::path(dir) / "KVX_INDEX",
                      std::ios::binary | std::ios::trunc);
  if (!index) return Status::IOError("open " + dir + "/KVX_INDEX");
  for (const auto& [name, inode] : files_) {
    // One index line per file: "<logical_size> <name>". Names are flat
    // (no '/' or whitespace), so a space-delimited line is unambiguous.
    index << inode->logical_size << ' ' << name << '\n';
    std::ofstream out(stdfs::path(dir) / name,
                      std::ios::binary | std::ios::trunc);
    if (!out) return Status::IOError("open " + dir + "/" + name);
    out.write(inode->data.data(),
              static_cast<std::streamsize>(inode->data.size()));
    if (!out) return Status::IOError("write " + dir + "/" + name);
  }
  index.flush();
  if (!index) return Status::IOError("write " + dir + "/KVX_INDEX");
  return Status::OK();
}

Status SimFs::LoadFromHostDir(const std::string& dir) {
  namespace stdfs = std::filesystem;
  std::ifstream index(stdfs::path(dir) / "KVX_INDEX", std::ios::binary);
  if (!index) return Status::NotFound(dir + "/KVX_INDEX");
  uint64_t logical;
  std::string name;
  while (index >> logical >> name) {
    std::ifstream in(stdfs::path(dir) / name,
                     std::ios::binary | std::ios::ate);
    if (!in) return Status::IOError("open " + dir + "/" + name);
    auto size = static_cast<std::streamsize>(in.tellg());
    std::string data(static_cast<size_t>(size), '\0');
    in.seekg(0);
    if (size > 0) in.read(data.data(), size);
    if (!in) return Status::IOError("read " + dir + "/" + name);
    auto inode = std::make_shared<Inode>();
    inode->name = name;
    inode->data = std::move(data);
    inode->logical_size = logical;
    files_[name] = std::move(inode);
  }
  return Status::OK();
}

std::vector<std::string> SimFs::GetChildren() const {
  std::vector<std::string> names;
  names.reserve(files_.size());
  for (const auto& [name, inode] : files_) names.push_back(name);
  return names;
}

Status ReadFileToString(SimFs* fs, const std::string& name,
                        std::string* contents) {
  std::unique_ptr<RandomAccessFile> file;
  Status s = fs->NewRandomAccessFile(name, &file);
  if (!s.ok()) return s;
  return file->Read(0, file->physical_size(), contents);
}

Status ReplaceFileAtomically(SimFs* fs, const std::string& name,
                             const Slice& contents) {
  const std::string tmp = name + ".tmp";
  std::unique_ptr<WritableFile> file;
  Status s = fs->NewWritableFile(tmp, &file);
  if (s.ok()) s = file->Append(contents);
  if (s.ok()) s = file->Sync();
  if (s.ok()) s = file->Close();
  if (!s.ok()) return s;
  return fs->RenameFile(tmp, name);
}

// ---------------- WritableFile ----------------

WritableFile::WritableFile(SimFs* fs, std::shared_ptr<Inode> inode)
    : fs_(fs), inode_(std::move(inode)),
      writeback_chunk_(fs->writeback_chunk()) {}

WritableFile::~WritableFile() {
  // No device I/O from a destructor (it may run outside the simulation);
  // dirty bytes simply remain in the page cache.
  closed_ = true;
  inode_->open_for_write = false;
}

uint64_t WritableFile::logical_size() const { return inode_->logical_size; }
uint64_t WritableFile::physical_size() const { return inode_->data.size(); }

Status WritableFile::Append(const Slice& physical, uint64_t logical) {
  if (closed_) return Status::InvalidArgument("append to closed file");
  inode_->data.append(physical.data(), physical.size());
  inode_->logical_size += logical;
  inode_->dirty_logical += logical;
  inode_->dirty_physical += physical.size();
  if (writeback_chunk_ != kLazyWriteback &&
      inode_->dirty_logical >= writeback_chunk_) {
    return WriteBack(/*partial=*/false);
  }
  return Status::OK();
}

Status WritableFile::WriteBack(bool partial) {
  const uint64_t page = fs_->ssd_->config().page_size;
  const uint64_t chunk =
      writeback_chunk_ == kLazyWriteback ? page : writeback_chunk_;
  uint64_t dirty = inode_->dirty_logical;
  uint64_t to_write = partial ? dirty : dirty - (dirty % chunk);
  if (to_write == 0) return Status::OK();
  // Sector-granular accounting; the final partial sector of a file is only
  // charged once, at the forced (Sync) writeback.
  uint64_t sectors = partial ? (to_write + page - 1) / page : to_write / page;
  if (sectors == 0) return Status::OK();
  std::vector<Extent> extents;
  Status s = fs_->AllocSectors(sectors, &extents);
  if (!s.ok()) return s;
  for (const Extent& e : extents) {
    Status ws = device_side_
                    ? fs_->ssd_->BlockWriteInternal(fs_->nsid_, e.lba,
                                                    e.sectors)
                    : fs_->ssd_->BlockWrite(fs_->nsid_, e.lba, e.sectors);
    if (!ws.ok()) return ws;
  }
  for (Extent& e : extents) {
    if (!inode_->extents.empty() &&
        inode_->extents.back().lba + inode_->extents.back().sectors == e.lba) {
      inode_->extents.back().sectors += e.sectors;
    } else {
      inode_->extents.push_back(e);
    }
  }
  inode_->allocated_sectors += sectors;
  // Retire the written share of the dirty physical bytes proportionally.
  uint64_t phys_written =
      dirty == 0 ? inode_->dirty_physical
                 : static_cast<uint64_t>(
                       static_cast<double>(inode_->dirty_physical) *
                       static_cast<double>(to_write) /
                       static_cast<double>(dirty));
  phys_written = std::min(inode_->dirty_physical, phys_written);
  inode_->dirty_physical -= phys_written;
  inode_->dirty_logical -= std::min(inode_->dirty_logical, to_write);
  if (inode_->dirty_logical == 0) {
    phys_written += inode_->dirty_physical;
    inode_->dirty_physical = 0;
  }
  // Written back, but only durable once a BlockFlush covers it.
  inode_->unsynced_logical += to_write;
  inode_->unsynced_physical += phys_written;
  return Status::OK();
}

Status WritableFile::Flush() {
  if (closed_) return Status::InvalidArgument("flush of closed file");
  return WriteBack(/*partial=*/true);
}

Status WritableFile::Sync() {
  Status s = Flush();
  if (!s.ok()) return s;
  s = fs_->ssd_->BlockFlush(fs_->nsid_);
  if (!s.ok()) return s;
  fs_->MarkAllSynced();
  return Status::OK();
}

Status WritableFile::Close() {
  if (closed_) return Status::OK();
  closed_ = true;
  inode_->open_for_write = false;
  return Status::OK();
}

// ---------------- RandomAccessFile ----------------

Status RandomAccessFile::Read(uint64_t offset, size_t n,
                              std::string* out) const {
  out->clear();
  const uint64_t physical = inode_->data.size();
  if (offset >= physical) return Status::OK();  // EOF: empty read
  n = std::min<uint64_t>(n, physical - offset);
  // Charge device time in logical bytes, proportional to the physical slice,
  // rounded up to whole sectors (device reads are page-granular).
  const uint64_t page = fs_->ssd_->config().page_size;
  double scale =
      physical == 0 ? 1.0
                    : static_cast<double>(inode_->logical_size) /
                          static_cast<double>(physical);
  uint64_t logical_bytes = static_cast<uint64_t>(
      static_cast<double>(n) * std::max(1.0, scale) + 0.5);
  uint64_t sectors = std::max<uint64_t>(1, (logical_bytes + page - 1) / page);
  // The LBA only matters for bounds accounting (timing is LBA-independent),
  // so clamp it inside the block region.
  uint64_t cap = fs_->ssd_->BlockCapacitySectors(fs_->nsid_);
  sectors = std::min(sectors, cap);
  uint64_t lba = inode_->extents.empty() ? 0 : inode_->extents.front().lba;
  if (lba + sectors > cap) lba = cap - sectors;
  Status s = device_side_
                 ? fs_->ssd_->BlockReadInternal(fs_->nsid_, lba, sectors)
                 : fs_->ssd_->BlockRead(fs_->nsid_, lba, sectors);
  if (!s.ok()) return s;
  // Copy after the device wait: appended-only data makes [offset, offset+n)
  // immutable once written.
  out->assign(inode_->data, offset, n);
  if (!out->empty()) {
    sim::SimEnv* env = fs_->ssd_->env();
    if (sim::FaultAt(env, "simfs.read.bitflip")) {
      // Latent media corruption: flip one bit of the returned payload.
      sim::FaultInjector* inj = env->fault_injector();
      size_t byte = inj->Rand(out->size());
      (*out)[byte] = static_cast<char>(
          static_cast<unsigned char>((*out)[byte]) ^ (1u << inj->Rand(8)));
    }
    if (sim::FaultAt(env, "simfs.read.short")) {
      out->resize(env->fault_injector()->Rand(out->size()));
    }
  }
  return Status::OK();
}

}  // namespace kvaccel::fs
