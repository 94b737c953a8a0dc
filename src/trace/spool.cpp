#include "trace/spool.hpp"

#include <algorithm>
#include <cstdio>

#include "support/failpoints.hpp"

namespace sdlo::trace {

namespace {

constexpr char kMagicV1[8] = {'S', 'D', 'L', 'O', 'S', 'P', 'L', '1'};
constexpr char kMagicV2[8] = {'S', 'D', 'L', 'O', 'S', 'P', 'L', '2'};
constexpr std::size_t kHeaderBytes = 48;
constexpr std::size_t kWriteFlushBytes = std::size_t{256} << 10;

/// Group tags: a self-contained group vs a delta against the previous.
constexpr std::uint64_t kGroupFull = 0;
constexpr std::uint64_t kGroupDelta = 1;

void put_u64_le(unsigned char* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<unsigned char>(v >> (8 * i));
}

std::uint64_t get_u64_le(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

}  // namespace

SpoolWriter::SpoolWriter(std::string path)
    : path_(std::move(path)), tmp_path_(path_ + ".tmp") {
  out_.open(tmp_path_, std::ios::binary | std::ios::trunc);
  if (!out_.good()) {
    throw IoError("spool: cannot open " + tmp_path_ + " for writing");
  }
  buf_.reserve(kWriteFlushBytes + 64);
  // Header placeholder; finish() seeks back and fills it in.
  const unsigned char zeros[kHeaderBytes] = {};
  out_.write(reinterpret_cast<const char*>(zeros), kHeaderBytes);
  bytes_written_ = kHeaderBytes;
}

SpoolWriter::~SpoolWriter() {
  if (!finished_) discard();
}

void SpoolWriter::discard() {
  if (out_.is_open()) out_.close();
  std::remove(tmp_path_.c_str());
}

void SpoolWriter::put_varint(std::uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<unsigned char>(v) | 0x80);
    v >>= 7;
  }
  buf_.push_back(static_cast<unsigned char>(v));
}

void SpoolWriter::flush_buffer() {
  if (buf_.empty()) return;
  if (failpoints::fail_alloc(failpoints::kSpoolWrite)) {
    discard();
    throw IoError("spool: injected write failure at " + tmp_path_);
  }
  out_.write(reinterpret_cast<const char*>(buf_.data()),
             static_cast<std::streamsize>(buf_.size()));
  if (!out_.good()) {
    discard();
    throw IoError("spool: write failed at " + tmp_path_);
  }
  bytes_written_ += buf_.size();
  buf_.clear();
}

void SpoolWriter::put_group_full(const Run* group, std::size_t nrefs) {
  put_varint(nrefs);
  put_varint(group[0].count);
  for (std::size_t r = 0; r < nrefs; ++r) {
    put_varint(group[r].base);
    put_varint(zigzag(group[r].stride));
    put_varint((static_cast<std::uint64_t>(group[r].site) << 1) |
               (group[r].mode == ir::AccessMode::kWrite ? 1 : 0));
  }
}

void SpoolWriter::put_group(const Run* group, std::size_t nrefs,
                            bool at_index) {
  // A delta group must have the previous group's exact shape: same width
  // and, per run, the same stride and (site, mode). Index boundaries force
  // a full group so seeks need no decoder state.
  bool delta = !at_index && prev_.size() == nrefs;
  if (delta) {
    for (std::size_t r = 0; r < nrefs; ++r) {
      if (group[r].stride != prev_[r].stride ||
          group[r].site != prev_[r].site ||
          group[r].mode != prev_[r].mode) {
        delta = false;
        break;
      }
    }
  }
  if (delta) {
    put_varint(kGroupDelta);
    put_varint(zigzag(static_cast<std::int64_t>(group[0].count) -
                      static_cast<std::int64_t>(prev_[0].count)));
    for (std::size_t r = 0; r < nrefs; ++r) {
      put_varint(zigzag(
          static_cast<std::int64_t>(group[r].base - prev_[r].base)));
    }
  } else {
    put_varint(kGroupFull);
    put_group_full(group, nrefs);
  }
  prev_.assign(group, group + nrefs);
}

void SpoolWriter::add_group(const Run* group, std::size_t nrefs) {
  SDLO_EXPECTS(!finished_);
  SDLO_EXPECTS(nrefs > 0);
  const bool at_index = groups_ % kSpoolIndexStride == 0;
  if (at_index) {
    index_.emplace_back(bytes_written_ + buf_.size(), accesses_);
  }
  put_group(group, nrefs, at_index);
  ++groups_;
  accesses_ += group[0].count * nrefs;
  if (buf_.size() >= kWriteFlushBytes) flush_buffer();
}

std::uint64_t SpoolWriter::body_bytes() const {
  return bytes_written_ + buf_.size() - kHeaderBytes;
}

void SpoolWriter::finish(std::int32_t num_sites,
                         std::uint64_t address_space) {
  SDLO_EXPECTS(!finished_);
  SDLO_EXPECTS(num_sites >= 0);
  flush_buffer();
  const std::uint64_t index_offset = bytes_written_;
  unsigned char word[8];
  put_u64_le(word, index_.size());
  buf_.insert(buf_.end(), word, word + 8);
  for (const auto& [offset, prefix] : index_) {
    put_u64_le(word, offset);
    buf_.insert(buf_.end(), word, word + 8);
    put_u64_le(word, prefix);
    buf_.insert(buf_.end(), word, word + 8);
  }
  flush_buffer();

  unsigned char header[kHeaderBytes] = {};
  std::copy(kMagicV2, kMagicV2 + 8, header);
  put_u64_le(header + 8, groups_);
  put_u64_le(header + 16, accesses_);
  put_u64_le(header + 24, address_space);
  put_u64_le(header + 32, static_cast<std::uint32_t>(num_sites));
  put_u64_le(header + 40, index_offset);
  out_.seekp(0);
  out_.write(reinterpret_cast<const char*>(header), kHeaderBytes);
  out_.close();
  if (out_.fail() || failpoints::fail_alloc(failpoints::kSpoolWrite)) {
    discard();
    throw IoError("spool: finalize failed at " + tmp_path_);
  }
  if (std::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
    discard();
    throw IoError("spool: cannot rename " + tmp_path_ + " to " + path_);
  }
  finished_ = true;
}

void spool_program(const std::string& path, const CompiledProgram& prog) {
  SpoolWriter writer(path);
  prog.walk_runs([&](const Run* group, std::size_t nrefs) {
    writer.add_group(group, nrefs);
  });
  writer.finish(prog.num_sites(), prog.address_space_size());
}

SpoolFileGuard::~SpoolFileGuard() {
  if (!released_) std::remove(path_.c_str());
}

SpooledTrace::SpooledTrace(std::string path, SpoolReadOptions opt)
    : path_(std::move(path)), opt_(opt) {
  SDLO_EXPECTS(opt_.window_bytes >= 64);
  std::ifstream in(path_, std::ios::binary);
  if (!in.good()) throw IoError("spool: cannot open " + path_);
  unsigned char header[kHeaderBytes];
  in.read(reinterpret_cast<char*>(header), kHeaderBytes);
  if (!in.good()) throw IoError("spool: " + path_ + " is not a spool file");
  if (std::equal(kMagicV1, kMagicV1 + 8, header)) {
    throw IoError("spool: " + path_ +
                  " is a version-1 (SDLOSPL1) spool, which is no longer "
                  "read; re-spool the program");
  }
  if (!std::equal(kMagicV2, kMagicV2 + 8, header)) {
    throw IoError("spool: " + path_ + " is not a spool file");
  }
  total_groups_ = get_u64_le(header + 8);
  total_accesses_ = get_u64_le(header + 16);
  address_space_ = get_u64_le(header + 24);
  num_sites_ = static_cast<std::int32_t>(get_u64_le(header + 32));
  const std::uint64_t index_offset = get_u64_le(header + 40);
  body_offset_ = kHeaderBytes;

  in.seekg(static_cast<std::streamoff>(index_offset));
  unsigned char word[8];
  in.read(reinterpret_cast<char*>(word), 8);
  if (!in.good()) throw IoError("spool: truncated index in " + path_);
  const std::uint64_t entries = get_u64_le(word);
  const std::uint64_t expected =
      total_groups_ == 0 ? 0
                         : (total_groups_ - 1) / kSpoolIndexStride + 1;
  if (entries != expected) {
    throw IoError("spool: corrupt index in " + path_);
  }
  index_.reserve(static_cast<std::size_t>(entries));
  for (std::uint64_t i = 0; i < entries; ++i) {
    unsigned char pair[16];
    in.read(reinterpret_cast<char*>(pair), 16);
    if (!in.good()) throw IoError("spool: truncated index in " + path_);
    index_.emplace_back(get_u64_le(pair), get_u64_le(pair + 8));
  }
}

void SpooledTrace::refill(Cursor& cur) const {
  cur.buf.resize(opt_.window_bytes);
  cur.in.read(reinterpret_cast<char*>(cur.buf.data()),
              static_cast<std::streamsize>(cur.buf.size()));
  cur.len = static_cast<std::size_t>(cur.in.gcount());
  cur.pos = 0;
  if (cur.len == 0) throw IoError("spool: unexpected end of " + path_);
}

std::uint64_t SpooledTrace::get_varint(Cursor& cur) const {
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    if (cur.pos >= cur.len) refill(cur);
    const unsigned char b = cur.buf[cur.pos++];
    v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) return v;
    shift += 7;
    SDLO_CHECK(shift < 64, "spool: varint overflow in " + path_);
  }
}

void SpooledTrace::decode_group_full(Cursor& cur,
                                     std::vector<Run>& group) const {
  const std::uint64_t nrefs = get_varint(cur);
  SDLO_CHECK(nrefs > 0 && nrefs <= kMaxLeafRefs,
             "spool: corrupt group width in " + path_);
  const std::uint64_t count = get_varint(cur);
  group.clear();
  for (std::uint64_t r = 0; r < nrefs; ++r) {
    Run run;
    run.base = get_varint(cur);
    run.stride = unzigzag(get_varint(cur));
    const std::uint64_t word = get_varint(cur);
    run.site = static_cast<std::int32_t>(word >> 1);
    run.mode =
        (word & 1) != 0 ? ir::AccessMode::kWrite : ir::AccessMode::kRead;
    run.count = count;
    group.push_back(run);
  }
}

void SpooledTrace::decode_group(Cursor& cur, std::vector<Run>& group) const {
  const std::uint64_t tag = get_varint(cur);
  if (tag == kGroupFull) {
    decode_group_full(cur, group);
  } else {
    SDLO_CHECK(tag == kGroupDelta, "spool: corrupt group tag in " + path_);
    SDLO_CHECK(!cur.prev.empty(),
               "spool: delta group with no predecessor in " + path_);
    const std::uint64_t count =
        cur.prev[0].count +
        static_cast<std::uint64_t>(unzigzag(get_varint(cur)));
    group.clear();
    for (Run run : cur.prev) {
      run.base += static_cast<std::uint64_t>(unzigzag(get_varint(cur)));
      run.count = count;
      group.push_back(run);
    }
  }
  cur.prev.assign(group.begin(), group.end());
}

std::uint64_t SpooledTrace::open_at(Cursor& cur, std::uint64_t group) const {
  SDLO_EXPECTS(group < total_groups_);
  const std::size_t entry =
      static_cast<std::size_t>(group / kSpoolIndexStride);
  cur.in.open(path_, std::ios::binary);
  if (!cur.in.good()) throw IoError("spool: cannot open " + path_);
  cur.in.seekg(static_cast<std::streamoff>(index_[entry].first));
  cur.pos = 0;
  cur.len = 0;
  cur.prev.clear();  // index entries always land on full (tag 0) groups
  return group - static_cast<std::uint64_t>(entry) * kSpoolIndexStride;
}

std::uint64_t SpooledTrace::group_of_access(
    std::uint64_t access_index) const {
  SDLO_EXPECTS(access_index < total_accesses_);
  // Last index entry whose access prefix is <= access_index.
  auto it = std::upper_bound(
      index_.begin(), index_.end(), access_index,
      [](std::uint64_t v, const auto& e) { return v < e.second; });
  SDLO_EXPECTS(it != index_.begin());
  const std::size_t entry = static_cast<std::size_t>(it - index_.begin()) - 1;

  Cursor cur;
  cur.in.open(path_, std::ios::binary);
  if (!cur.in.good()) throw IoError("spool: cannot open " + path_);
  cur.in.seekg(static_cast<std::streamoff>(index_[entry].first));
  std::uint64_t g = static_cast<std::uint64_t>(entry) * kSpoolIndexStride;
  std::uint64_t acc = index_[entry].second;
  for (;;) {
    // Stateful decode keeps delta chains intact; the index entry is
    // always a full group, so the cursor needs no priming.
    decode_group(cur, cur.scratch);
    acc += cur.scratch[0].count * cur.scratch.size();
    if (access_index < acc) return g;
    ++g;
    SDLO_CHECK(g < total_groups_, "spool: corrupt access counts in " + path_);
  }
}

}  // namespace sdlo::trace
