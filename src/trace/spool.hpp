// Out-of-core trace spool: run groups on disk, streamed back in bounded
// windows.
//
// A run-compressed trace (walker.hpp) is tiny per access, but a
// billion-access program can still carry tens of millions of run groups —
// more than a memory-budgeted driver may hold at once. The spool closes
// that gap with a disk form of the same group stream:
//
//  * SpoolWriter serializes walk_runs() groups to a compact varint format,
//    "SDLOSPL2": per group a tag varint. Tag 0 is a FULL group — the ref
//    count and iteration count, then per run the base, zigzag stride and
//    (site, mode) word. Tag 1 is a DELTA group: it has the same shape as
//    the previous group (same ref count and, per run, the same
//    site/mode/stride), so only zigzag(count - prev count) and per run
//    zigzag(base - prev base) are stored. Loop nests re-execute the same
//    leaf statements with shifted bases, so almost every group after the
//    first in a leaf's lifetime is a delta — typically 2-4x smaller files.
//    A full group is forced at every kSpoolIndexStride-th group, so a seek
//    through the sparse index always lands on a self-contained group and
//    needs no prior decoder state.
//
//    A sparse index — one entry every kSpoolIndexStride groups, carrying
//    the file offset and the access-count prefix — is appended at the end
//    so readers can seek by group or by access index without scanning. The
//    writer builds the file at `path + ".tmp"` and renames it into place on
//    finish(); any failure (including the spool-write failpoint) leaves
//    nothing at the destination path. The retired "SDLOSPL1" container
//    (full groups only) is recognized and refused with an IoError.
//
//  * SpooledTrace re-streams the groups through the same walk_runs() /
//    walk_runs_range() shapes CompiledProgram offers, group for group
//    bit-identical to the spooled program's own walk. Reads go through a
//    bounded window buffer (SpoolReadOptions, default 1 MiB) — peak memory
//    is the window, never the trace. Walks are const and re-entrant (each
//    opens its own stream).
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "support/check.hpp"
#include "trace/walker.hpp"

namespace sdlo::trace {

/// Thrown when a spool file cannot be written or is malformed.
class IoError : public Error {
 public:
  using Error::Error;
};

/// Groups between two spool index entries: a by-group or by-access seek
/// decodes at most this many groups before reaching its target.
inline constexpr std::uint64_t kSpoolIndexStride = 4096;

/// Bounded-window read configuration for SpooledTrace.
struct SpoolReadOptions {
  /// Bytes buffered per open walk; the reader's peak memory.
  std::size_t window_bytes = std::size_t{1} << 20;
};

/// Streaming writer of the spool format. Feed program-order run groups via
/// add_group() (a walk_runs sink), then finish(); destroying an unfinished
/// writer discards the temporary file. The group-at-a-time API is what the
/// pipelined sweep tees into: the generator appends group g while workers
/// profile earlier groups, so the spool write overlaps the profile.
class SpoolWriter {
 public:
  explicit SpoolWriter(std::string path);
  ~SpoolWriter();

  SpoolWriter(const SpoolWriter&) = delete;
  SpoolWriter& operator=(const SpoolWriter&) = delete;

  /// Appends one run group (same contract as a walk_runs sink).
  void add_group(const Run* group, std::size_t nrefs);

  /// Groups appended so far.
  std::uint64_t groups() const { return groups_; }

  /// Accesses covered by the appended groups.
  std::uint64_t accesses() const { return accesses_; }

  /// Bytes the body has consumed so far (header excluded).
  std::uint64_t body_bytes() const;

  /// Writes the index and header, closes the temporary file and renames it
  /// to the destination path. Throws IoError on any write failure, leaving
  /// no file at the destination.
  void finish(std::int32_t num_sites, std::uint64_t address_space);

 private:
  void put_varint(std::uint64_t v);
  void put_group_full(const Run* group, std::size_t nrefs);
  void put_group(const Run* group, std::size_t nrefs, bool at_index);
  void flush_buffer();
  void discard();

  std::string path_;
  std::string tmp_path_;
  std::ofstream out_;
  std::vector<unsigned char> buf_;
  std::uint64_t bytes_written_ = 0;  // flushed bytes (file offset of buf_[0])
  std::uint64_t groups_ = 0;
  std::uint64_t accesses_ = 0;
  std::vector<Run> prev_;  // previous group, the delta base
  // One (file offset, access prefix) pair every kSpoolIndexStride groups.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> index_;
  bool finished_ = false;
};

/// Spools the whole run-compressed trace of a compiled program to `path`.
void spool_program(const std::string& path, const CompiledProgram& prog);

/// Deletes the file at `path` on destruction unless released — the
/// deadline-safe way to hold a temporary spool across its write and later
/// reopen: if a deadline (or any exception) fires between the two, the
/// guard's unwind removes the file instead of leaking it.
class SpoolFileGuard {
 public:
  explicit SpoolFileGuard(std::string path) : path_(std::move(path)) {}
  ~SpoolFileGuard();

  SpoolFileGuard(const SpoolFileGuard&) = delete;
  SpoolFileGuard& operator=(const SpoolFileGuard&) = delete;

  /// Keeps the file: the caller now owns it.
  void release() { released_ = true; }

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  bool released_ = false;
};

/// A spool file opened for streaming reads. Metadata comes from the header;
/// walks decode groups through a bounded window.
class SpooledTrace {
 public:
  explicit SpooledTrace(std::string path, SpoolReadOptions opt = {});

  std::uint64_t total_accesses() const { return total_accesses_; }
  std::uint64_t group_count() const { return total_groups_; }
  std::int32_t num_sites() const { return num_sites_; }
  std::uint64_t address_space_size() const { return address_space_; }

  /// Index of the group containing global access `access_index`; seeks via
  /// the sparse index, decoding at most kSpoolIndexStride groups.
  std::uint64_t group_of_access(std::uint64_t access_index) const;

  /// Streams every group in program order (same contract as
  /// CompiledProgram::walk_runs). Const and re-entrant.
  template <typename GroupSink>
  void walk_runs(GroupSink&& sink) const {
    walk_runs_range(0, total_groups_, sink);
  }

  /// Streams groups [first_group, first_group + num_groups), bit-identical
  /// to that slice of walk_runs().
  template <typename GroupSink>
  void walk_runs_range(std::uint64_t first_group, std::uint64_t num_groups,
                       GroupSink&& sink) const {
    SDLO_EXPECTS(first_group + num_groups <= total_groups_);
    if (num_groups == 0) return;
    Cursor cur;
    const std::uint64_t skip = open_at(cur, first_group);
    std::vector<Run> group;
    group.reserve(kMaxLeafRefs);
    // Delta groups depend on their predecessor, so skipped groups are
    // still decoded (into scratch) to keep the delta base current.
    for (std::uint64_t g = 0; g < skip; ++g) decode_group(cur, cur.scratch);
    for (std::uint64_t g = 0; g < num_groups; ++g) {
      decode_group(cur, group);
      sink(static_cast<const Run*>(group.data()), group.size());
    }
  }

 private:
  /// One open decode stream: a file handle plus the bounded byte window,
  /// and the previously decoded group — the delta base. A cursor
  /// always starts at an index boundary, where the writer guarantees a
  /// self-contained full group, so `prev` never needs priming.
  struct Cursor {
    std::ifstream in;
    std::vector<unsigned char> buf;
    std::size_t pos = 0;  // next unread byte in buf
    std::size_t len = 0;  // valid bytes in buf
    std::vector<Run> prev;     // delta base (empty until first group)
    std::vector<Run> scratch;  // skip target
  };

  /// Opens a cursor at the largest indexed group <= `group`; returns how
  /// many groups remain to skip by decoding.
  std::uint64_t open_at(Cursor& cur, std::uint64_t group) const;
  void refill(Cursor& cur) const;
  std::uint64_t get_varint(Cursor& cur) const;
  void decode_group_full(Cursor& cur, std::vector<Run>& group) const;
  void decode_group(Cursor& cur, std::vector<Run>& group) const;

  std::string path_;
  SpoolReadOptions opt_;
  std::uint64_t total_groups_ = 0;
  std::uint64_t total_accesses_ = 0;
  std::uint64_t address_space_ = 0;
  std::int32_t num_sites_ = 0;
  std::uint64_t body_offset_ = 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> index_;
};

}  // namespace sdlo::trace
