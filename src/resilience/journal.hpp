// Crash-safe append-only result journal for sweep execution.
//
// Layout of a journal file:
//
//   <header JSON>\n                 -- written via temp + atomic rename
//   R <len:8 hex> <fnv64:16 hex> <payload JSON>\n    -- appended
//   R ...
//
// The header lands atomically before any record, so a journal is never
// observed half-created. Each record is one length-prefixed, checksummed
// JSONL line describing one completed grid point (ok result or typed
// quarantine error). append() frames a record into a buffer the moment
// its point finishes; commit() writes the buffer with one write() and
// fsyncs it (group commit), and callers report a point only after the
// commit that covers it. A buffer that outgrows 64 KiB, more than a
// commit chunk of records, is written at once without an fsync, so a
// long trailing commit is not held in memory. A SIGKILL loses at most
// the records appended since the last commit, none of them reported
// durable, and can tear at most the bytes being written. Closing the
// journal writes what is still buffered, without an fsync, so a sweep
// that throws keeps the records it appended. The loader verifies
// prefix, length, checksum and terminator record by record and
// *truncates* a torn tail instead of failing: a killed sweep resumes
// from exactly the points whose records were fully written.
//
// Doubles round-trip bit-exactly: they are serialized as C99 hexfloats
// ("0x1.9a6p+9") inside JSON strings.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "par/sweep.hpp"
#include "resilience/retry.hpp"
#include "sim/metrics.hpp"

namespace fcdpm::resilience {

/// Identity of the sweep a journal belongs to. The fingerprint hashes
/// the base config's observable inputs (trace contents, predictor
/// seeds, initial storage) and every grid point, so resuming with a
/// different grid or workload is rejected instead of silently merging
/// incompatible results.
struct JournalHeader {
  std::string trace_name;
  std::size_t points = 0;
  std::uint64_t fingerprint = 0;
};

/// One journaled grid point. `ok` records carry the observable result
/// fields (everything the sweep table, BENCH export and bit-identity
/// checks read); failed records carry the typed error instead.
struct JournalRecord {
  std::size_t index = 0;  ///< grid index (grid order is canonical)
  par::SweepPoint point;
  std::size_t attempts = 1;
  bool ok = true;
  PointError error;            ///< valid when !ok
  sim::SimulationResult result;  ///< observable fields only, when ok
  /// An ok hot run whose slack witness stayed clean (par::run_hot_chunk):
  /// on resume it serves its capacity twins. Journaled only when true,
  /// so older journals read every leader as dirty.
  bool clean_leader = false;
};

/// Fingerprint of (base config, grid points, storm size);
/// order-sensitive over the points.
[[nodiscard]] std::uint64_t grid_fingerprint(
    const sim::ExperimentConfig& base,
    const std::vector<par::SweepPoint>& points, std::size_t storm_faults);

/// Append-only journal writer. Thread-safe: workers append completed
/// points concurrently; each append is serialized into a buffer, and
/// commit() writes the buffer and makes every append so far durable.
class Journal {
 public:
  /// Create a fresh journal at `path`: the header is staged in a temp
  /// file and atomically renamed into place, then the file is opened
  /// for record appends. Throws CsvError on I/O failure.
  [[nodiscard]] static Journal create(const std::string& path,
                                      const JournalHeader& header);

  /// Open an existing journal for appending (resume). The caller is
  /// expected to have load_journal()'d it first; a torn tail found
  /// there is physically truncated here before appending.
  [[nodiscard]] static Journal open_for_append(const std::string& path,
                                               std::size_t valid_bytes);

  Journal(Journal&& other) noexcept;
  Journal& operator=(Journal&& other) noexcept;
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;
  ~Journal();

  /// Serialize, length-prefix and checksum the record into the buffer,
  /// in append order; no fsync (see commit()), and no write() until the
  /// buffer passes 64 KiB. Thread-safe. Throws CsvError when that write
  /// fails.
  void append(const JournalRecord& record);

  /// If anything was appended since the last commit, write it with one
  /// write() loop, fsync once and return true; return false without
  /// syscalls otherwise. Thread-safe. Throws CsvError when the write or
  /// fsync fails.
  bool commit();

 private:
  Journal(std::string path, int fd);

  /// Write and drop the buffered bytes; on failure the unwritten rest
  /// stays buffered and CsvError is thrown.
  void write_all();
  /// Write what is still buffered, without an fsync, and close the fd.
  void close() noexcept;

  std::string path_;
  int fd_ = -1;
  /// Serializes appends and commits from worker threads (heap-held so
  /// the journal stays movable). Guards the fd and `pending_`.
  std::unique_ptr<std::mutex> mutex_;
  std::string pending_;  ///< framed records not yet written
  /// Something was appended since the last fsync. Not `!pending_.empty()`:
  /// an append past 64 KiB writes and empties the buffer before the
  /// commit that must still fsync it.
  bool unsynced_ = false;
};

/// Result of loading a journal.
struct JournalLoad {
  JournalHeader header;
  std::vector<JournalRecord> records;  ///< valid records, file order
  bool torn_tail = false;   ///< trailing partial/corrupt record dropped
  std::size_t dropped_bytes = 0;  ///< bytes past the last valid record
  std::size_t valid_bytes = 0;    ///< offset of the first dropped byte
};

/// Load a journal, recovering from a torn tail (see file comment).
/// Throws CsvError when the file is missing or the header itself is
/// unreadable (a journal without a committed header never held data).
[[nodiscard]] JournalLoad load_journal(const std::string& path);

/// Serialization of one record (exposed for tests; the exact bytes
/// `append` writes, minus prefix/checksum framing).
[[nodiscard]] std::string record_to_json(const JournalRecord& record);

}  // namespace fcdpm::resilience
