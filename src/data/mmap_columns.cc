#include "data/mmap_columns.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstring>

#include "common/string_util.h"

namespace humo::data {
namespace {

/// Fixed header size; the first column starts here (64-byte aligned).
constexpr size_t kHeaderBytes = 64;

constexpr size_t Align64(size_t x) { return (x + 63) & ~size_t{63}; }

/// Byte offsets of the four column regions for an n-pair file.
struct ColumnLayout {
  size_t sims, lefts, rights, labels, file_size;
};

ColumnLayout LayoutFor(size_t n) {
  ColumnLayout l;
  l.sims = kHeaderBytes;
  l.lefts = Align64(l.sims + n * sizeof(double));
  l.rights = Align64(l.lefts + n * sizeof(uint32_t));
  l.labels = Align64(l.rights + n * sizeof(uint32_t));
  l.file_size = l.labels + n * sizeof(uint8_t);
  return l;
}

/// Row form used by the external sorter's run files: one fixed-size record
/// per pair so runs stream sequentially during the merge.
struct RunRow {
  double sim;
  uint32_t left;
  uint32_t right;
  uint32_t label;  // 0/1; u32 keeps the struct pod-packed at 24 bytes
};
static_assert(sizeof(RunRow) == 24, "run rows must be tightly packed");

/// Rows buffered per run reader / per writer flush during the merge.
constexpr size_t kMergeBufRows = 4096;

bool RunRowLess(const RunRow& a, const RunRow& b) {
  if (a.sim != b.sim) return a.sim < b.sim;
  if (a.left != b.left) return a.left < b.left;
  return a.right < b.right;
}

/// Buffered sequential reader over one sorted run file.
class RunReader {
 public:
  explicit RunReader(const std::string& path)
      : file_(std::fopen(path.c_str(), "rb")) {
    buf_.resize(kMergeBufRows);
  }
  ~RunReader() {
    if (file_ != nullptr) std::fclose(file_);
  }
  RunReader(RunReader&& other) noexcept
      : file_(other.file_),
        buf_(std::move(other.buf_)),
        pos_(other.pos_),
        avail_(other.avail_) {
    other.file_ = nullptr;
  }
  RunReader(const RunReader&) = delete;
  RunReader& operator=(const RunReader&) = delete;

  bool ok() const { return file_ != nullptr; }

  /// Current front row; only valid when !Done().
  const RunRow& Front() const { return buf_[pos_]; }

  bool Done() {
    if (pos_ < avail_) return false;
    avail_ = std::fread(buf_.data(), sizeof(RunRow), kMergeBufRows, file_);
    pos_ = 0;
    return avail_ == 0;
  }

  void Pop() { ++pos_; }

 private:
  std::FILE* file_;
  std::vector<RunRow> buf_;
  size_t pos_ = 0;
  size_t avail_ = 0;
};

/// Buffered column writer into one region of the final file: collects
/// values and flushes them at the region's running offset via fseek +
/// fwrite. Gaps between regions (alignment padding) read back as zeros.
template <typename T>
class RegionWriter {
 public:
  RegionWriter(std::FILE* file, size_t offset) : file_(file), offset_(offset) {
    buf_.reserve(kMergeBufRows);
  }

  bool Push(T v) {
    buf_.push_back(v);
    return buf_.size() < kMergeBufRows || Flush();
  }

  bool Flush() {
    if (buf_.empty()) return true;
    if (::fseeko(file_, static_cast<off_t>(offset_), SEEK_SET) != 0)
      return false;
    const size_t wrote =
        std::fwrite(buf_.data(), sizeof(T), buf_.size(), file_);
    if (wrote != buf_.size()) return false;
    offset_ += wrote * sizeof(T);
    buf_.clear();
    return true;
  }

 private:
  std::FILE* file_;
  size_t offset_;
  std::vector<T> buf_;
};

Status WriteHeader(std::FILE* file, size_t num_pairs) {
  unsigned char header[kHeaderBytes] = {};
  std::memcpy(header, kColumnsMagic, sizeof(kColumnsMagic));
  const uint64_t n = num_pairs;
  std::memcpy(header + 8, &n, sizeof(n));
  if (::fseeko(file, 0, SEEK_SET) != 0 ||
      std::fwrite(header, 1, kHeaderBytes, file) != kHeaderBytes) {
    return Status::IoError("columns file: header write failed");
  }
  return Status::OK();
}

}  // namespace

Result<std::shared_ptr<MmapColumns>> MmapColumns::Open(const std::string& path,
                                                       bool verify_sorted) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::NotFound(
        StrFormat("columns file %s: %s", path.c_str(), std::strerror(errno)));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IoError(StrFormat("columns file %s: fstat failed",
                                     path.c_str()));
  }
  const size_t file_size = static_cast<size_t>(st.st_size);
  if (file_size < kHeaderBytes) {
    ::close(fd);
    return Status::InvalidArgument(
        StrFormat("columns file %s: %zu bytes is smaller than the header",
                  path.c_str(), file_size));
  }
  void* map = ::mmap(nullptr, file_size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps its own reference
  if (map == MAP_FAILED) {
    return Status::IoError(
        StrFormat("columns file %s: mmap: %s", path.c_str(),
                  std::strerror(errno)));
  }

  const unsigned char* base = static_cast<const unsigned char*>(map);
  if (std::memcmp(base, kColumnsMagic, sizeof(kColumnsMagic)) != 0) {
    ::munmap(map, file_size);
    return Status::InvalidArgument(
        StrFormat("columns file %s: bad magic", path.c_str()));
  }
  uint64_t n = 0;
  std::memcpy(&n, base + 8, sizeof(n));
  const ColumnLayout layout = LayoutFor(static_cast<size_t>(n));
  if (layout.file_size != file_size) {
    ::munmap(map, file_size);
    return Status::InvalidArgument(StrFormat(
        "columns file %s: %zu bytes, expected %zu for %llu pairs",
        path.c_str(), file_size, layout.file_size,
        static_cast<unsigned long long>(n)));
  }

  auto cols = std::shared_ptr<MmapColumns>(new MmapColumns());
  cols->map_ = map;
  cols->map_size_ = file_size;
  cols->num_pairs_ = static_cast<size_t>(n);
  cols->sims_ = reinterpret_cast<const double*>(base + layout.sims);
  cols->lefts_ = reinterpret_cast<const uint32_t*>(base + layout.lefts);
  cols->rights_ = reinterpret_cast<const uint32_t*>(base + layout.rights);
  cols->labels_ = base + layout.labels;

  if (verify_sorted) {
    for (size_t i = 1; i < cols->num_pairs_; ++i) {
      const bool inverted =
          cols->sims_[i] < cols->sims_[i - 1] ||
          (cols->sims_[i] == cols->sims_[i - 1] &&
           (cols->lefts_[i] < cols->lefts_[i - 1] ||
            (cols->lefts_[i] == cols->lefts_[i - 1] &&
             cols->rights_[i] < cols->rights_[i - 1])));
      if (inverted) {
        return Status::InvalidArgument(StrFormat(
            "columns file %s: PairLess inversion at row %zu", path.c_str(),
            i));
      }
    }
  }
  return cols;
}

MmapColumns::~MmapColumns() {
  if (map_ != nullptr) ::munmap(map_, map_size_);
}

void MmapColumns::AdviseRandom() const {
  if (map_ != nullptr) ::madvise(map_, map_size_, MADV_RANDOM);
}

Status WriteColumnsFile(const Workload& workload, const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return Status::IoError(
        StrFormat("columns file %s: %s", path.c_str(), std::strerror(errno)));
  }
  const size_t n = workload.size();
  const ColumnLayout layout = LayoutFor(n);
  Status st = WriteHeader(file, n);
  const auto write_region = [&](size_t offset, const void* data,
                                size_t bytes) {
    if (!st.ok() || bytes == 0) return;
    if (::fseeko(file, static_cast<off_t>(offset), SEEK_SET) != 0 ||
        std::fwrite(data, 1, bytes, file) != bytes) {
      st = Status::IoError(
          StrFormat("columns file %s: column write failed", path.c_str()));
    }
  };
  write_region(layout.sims, workload.similarity_data(), n * sizeof(double));
  write_region(layout.lefts, workload.left_id_data(), n * sizeof(uint32_t));
  write_region(layout.rights, workload.right_id_data(), n * sizeof(uint32_t));
  write_region(layout.labels, workload.label_data(), n * sizeof(uint8_t));
  if (std::fclose(file) != 0 && st.ok()) {
    st = Status::IoError(StrFormat("columns file %s: close failed",
                                   path.c_str()));
  }
  return st;
}

ExternalColumnsWriter::ExternalColumnsWriter(std::string path,
                                             size_t run_pairs)
    : path_(std::move(path)), run_pairs_(std::max<size_t>(1, run_pairs)) {}

ExternalColumnsWriter::~ExternalColumnsWriter() {
  // Abandoned without Finish(): remove stray run files.
  for (const std::string& run : run_files_) ::unlink(run.c_str());
}

Status ExternalColumnsWriter::Append(const double* sims,
                                     const uint32_t* lefts,
                                     const uint32_t* rights,
                                     const uint8_t* labels, size_t n) {
  assert(!finished_);
  size_t i = 0;
  while (i < n) {
    const size_t take = std::min(n - i, run_pairs_ - sims_.size());
    sims_.insert(sims_.end(), sims + i, sims + i + take);
    lefts_.insert(lefts_.end(), lefts + i, lefts + i + take);
    rights_.insert(rights_.end(), rights + i, rights + i + take);
    labels_.insert(labels_.end(), labels + i, labels + i + take);
    i += take;
    if (sims_.size() == run_pairs_) HUMO_RETURN_NOT_OK(SpillRun());
  }
  total_pairs_ += n;
  return Status::OK();
}

Status ExternalColumnsWriter::SpillRun() {
  if (sims_.empty()) return Status::OK();
  // The library's own radix sort formats the run; the buffers are moved in
  // and replaced with fresh empties, so peak RAM stays one run.
  Workload run = Workload::FromColumns(std::move(lefts_), std::move(rights_),
                                       std::move(sims_), std::move(labels_));
  sims_ = {};
  lefts_ = {};
  rights_ = {};
  labels_ = {};

  const std::string run_path =
      StrFormat("%s.run%zu", path_.c_str(), run_files_.size());
  std::FILE* file = std::fopen(run_path.c_str(), "wb");
  if (file == nullptr) {
    return Status::IoError(StrFormat("run file %s: %s", run_path.c_str(),
                                     std::strerror(errno)));
  }
  std::vector<RunRow> rows;
  rows.reserve(kMergeBufRows);
  const size_t n = run.size();
  for (size_t i = 0; i < n; ++i) {
    rows.push_back({run.Similarity(i), run.left_id_data()[i],
                    run.right_id_data()[i],
                    static_cast<uint32_t>(run.label_data()[i])});
    if (rows.size() == kMergeBufRows || i + 1 == n) {
      if (std::fwrite(rows.data(), sizeof(RunRow), rows.size(), file) !=
          rows.size()) {
        std::fclose(file);
        ::unlink(run_path.c_str());
        return Status::IoError(
            StrFormat("run file %s: write failed", run_path.c_str()));
      }
      rows.clear();
    }
  }
  if (std::fclose(file) != 0) {
    ::unlink(run_path.c_str());
    return Status::IoError(StrFormat("run file %s: close failed",
                                     run_path.c_str()));
  }
  run_files_.push_back(run_path);
  return Status::OK();
}

Result<size_t> ExternalColumnsWriter::Finish() {
  assert(!finished_);
  HUMO_RETURN_NOT_OK(SpillRun());
  finished_ = true;

  std::FILE* out = std::fopen(path_.c_str(), "wb");
  if (out == nullptr) {
    return Status::IoError(
        StrFormat("columns file %s: %s", path_.c_str(),
                  std::strerror(errno)));
  }
  const ColumnLayout layout = LayoutFor(total_pairs_);
  Status st = WriteHeader(out, total_pairs_);
  if (!st.ok()) {
    std::fclose(out);
    return st;
  }

  {
    std::vector<RunReader> runs;
    runs.reserve(run_files_.size());
    for (const std::string& run : run_files_) {
      runs.emplace_back(run);
      if (!runs.back().ok()) {
        std::fclose(out);
        return Status::IoError(
            StrFormat("run file %s: reopen failed", run.c_str()));
      }
    }

    RegionWriter<double> sims(out, layout.sims);
    RegionWriter<uint32_t> lefts(out, layout.lefts);
    RegionWriter<uint32_t> rights(out, layout.rights);
    RegionWriter<uint8_t> labels(out, layout.labels);

    // K-way merge under PairLess; ties across runs resolve to the lowest
    // run index, so the merged order is deterministic even for duplicate
    // pairs. K stays small (total/run_pairs), so a linear min scan beats
    // heap bookkeeping.
    size_t written = 0;
    for (;;) {
      size_t best = runs.size();
      for (size_t k = 0; k < runs.size(); ++k) {
        if (runs[k].Done()) continue;
        if (best == runs.size() ||
            RunRowLess(runs[k].Front(), runs[best].Front())) {
          best = k;
        }
      }
      if (best == runs.size()) break;
      const RunRow& row = runs[best].Front();
      if (!sims.Push(row.sim) || !lefts.Push(row.left) ||
          !rights.Push(row.right) ||
          !labels.Push(static_cast<uint8_t>(row.label))) {
        std::fclose(out);
        return Status::IoError(
            StrFormat("columns file %s: write failed", path_.c_str()));
      }
      runs[best].Pop();
      ++written;
    }
    if (!sims.Flush() || !lefts.Flush() || !rights.Flush() ||
        !labels.Flush()) {
      std::fclose(out);
      return Status::IoError(
          StrFormat("columns file %s: flush failed", path_.c_str()));
    }
    if (written != total_pairs_) {
      std::fclose(out);
      return Status::Internal(StrFormat(
          "columns file %s: merged %zu of %zu pairs", path_.c_str(), written,
          total_pairs_));
    }
  }

  // Alignment padding past the last labels byte is not written by the
  // region writers; the layout ends ON the labels region, so the file size
  // is already exact. Guarantee it anyway for the n == 0 case.
  if (::ftruncate(fileno(out), static_cast<off_t>(layout.file_size)) != 0) {
    std::fclose(out);
    return Status::IoError(
        StrFormat("columns file %s: ftruncate failed", path_.c_str()));
  }
  if (std::fclose(out) != 0) {
    return Status::IoError(
        StrFormat("columns file %s: close failed", path_.c_str()));
  }
  for (const std::string& run : run_files_) ::unlink(run.c_str());
  run_files_.clear();
  return total_pairs_;
}

}  // namespace humo::data
