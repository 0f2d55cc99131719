// E15 — MVCC snapshot reads under write load (DESIGN.md Sec. 14): a reader
// pinned to a commit via ElementStore::OpenSnapshot never takes the buffer
// pool mutex, so its tail latency is immune to the commit protocol (WAL
// fsync + checkpoint write-back) that stalls a blocking reader mid-Flush.
// The headline metric is the p99 speedup of snapshot point reads over
// blocking point reads while a writer churns and commits continuously;
// the CI floor in .github/workflows/ci.yml holds it at >= 5x.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "storage/element_store.h"
#include "util/random.h"

namespace ruidx {
namespace bench {
namespace {

constexpr uint64_t kRecords = 2000;
constexpr uint64_t kBatch = 512;     // overwrites per commit
constexpr int kReads = 2000;         // latency samples per read mode
constexpr size_t kValueBytes = 128;  // sized so the snapshot cache holds the whole view

core::Ruid2Id MakeId(uint64_t i) {
  core::Ruid2Id id;
  id.global = BigUint(1 + i / 64);
  id.local = BigUint(2 + i % 64);
  id.is_area_root = false;
  return id;
}

storage::ElementRecord MakeRecord(uint64_t i, uint64_t generation) {
  storage::ElementRecord record;
  record.id = MakeId(i);
  record.parent_id = MakeId(i);
  record.node_type = 1;
  record.name = "n" + std::to_string(i % 16);
  record.value = std::string(kValueBytes, static_cast<char>('a' + i % 26)) +
                 "#" + std::to_string(generation);
  return record;
}

/// Puts every record at generation 0 and commits.
Status Preload(storage::ElementStore* store) {
  for (uint64_t i = 0; i < kRecords; ++i) {
    RUIDX_RETURN_NOT_OK(store->Put(MakeRecord(i, 0)));
  }
  return store->Flush();
}

double Percentile(std::vector<double>* sorted_us, double p) {
  std::sort(sorted_us->begin(), sorted_us->end());
  size_t idx = static_cast<size_t>(p * static_cast<double>(sorted_us->size()));
  if (idx >= sorted_us->size()) idx = sorted_us->size() - 1;
  return (*sorted_us)[idx];
}

/// Measures kReads point lookups via `get`, returning per-read wall-clock
/// latencies in microseconds. Reads are paced (open loop): a tight polling
/// loop would starve the writer off the core and sample almost nothing but
/// the uncontended fast path; sleeping between arrivals lands each read at
/// a uniformly random phase of the writer's put/commit cycle — the latency
/// an independent client actually observes under write load. The first
/// failed read is kept in `*failure`.
template <typename GetFn>
std::vector<double> MeasureReads(GetFn&& get, Status* failure) {
  std::vector<double> us;
  us.reserve(kReads);
  Rng rng(14);
  for (int i = 0; i < kReads; ++i) {
    uint64_t key = rng.NextBounded(kRecords);
    std::this_thread::sleep_for(std::chrono::microseconds(50));
    auto t0 = std::chrono::steady_clock::now();
    auto record = get(MakeId(key));
    auto t1 = std::chrono::steady_clock::now();
    if (!record.ok() && failure->ok()) *failure = record.status();
    us.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
  }
  return us;
}

void SnapshotLatencyTable() {
  Banner("E15: snapshot vs blocking point-read latency under commit churn",
         "DESIGN.md Sec. 14 (MVCC snapshot reads + group commit)");

  auto created = storage::ElementStore::Create("", /*buffer_pool_pages=*/64);
  if (!created.ok()) FailBench("store create", created.status());
  storage::ElementStore* store = created->get();
  if (Status st = Preload(store); !st.ok()) FailBench("preload", st);

  // Writer: rewrite a rotating batch and commit, as fast as the engine
  // allows, until told to stop. Each Flush holds the pool mutex across the
  // WAL fsync and the checkpoint write-back — the stall the blocking
  // readers eat and the snapshot readers dodge.
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> commits{0};
  Status writer_status;  // written by the writer, read after join()
  std::thread writer([&] {
    uint64_t cursor = 0;
    uint64_t generation = 1;
    while (!stop.load(std::memory_order_relaxed)) {
      for (uint64_t i = 0; i < kBatch; ++i) {
        writer_status =
            store->Put(MakeRecord((cursor + i) % kRecords, generation));
        if (!writer_status.ok()) return;
      }
      cursor = (cursor + kBatch) % kRecords;
      ++generation;
      writer_status = store->Flush();
      if (!writer_status.ok()) return;
      commits.fetch_add(1, std::memory_order_relaxed);
    }
  });

  Status read_status;

  // Mode 1: blocking reads through the pool (contend with FlushAll).
  std::vector<double> blocking_us = MeasureReads(
      [&](const core::Ruid2Id& id) { return store->Get(id); }, &read_status);

  // Mode 2: reads pinned to one committed snapshot. Scan once to validate
  // the pinned view (every preloaded record visible) and warm the
  // snapshot's page cache — the steady state of an analytic reader.
  std::vector<double> snapshot_us;
  uint64_t snapshot_count = 0;
  auto snap = store->OpenSnapshot();
  Status snap_status =
      !snap.ok() ? snap.status()
                 : (*snap)->ScanAll([&](const storage::BPlusTree::Key&,
                                        const storage::ElementRecord&) {
                     ++snapshot_count;
                     return true;
                   });
  if (snap_status.ok() && snapshot_count != kRecords) {
    snap_status = Status::Corruption(
        "snapshot view holds " + std::to_string(snapshot_count) + " of " +
        std::to_string(kRecords) + " records");
  }
  if (snap_status.ok()) {
    snapshot_us = MeasureReads(
        [&](const core::Ruid2Id& id) { return (*snap)->Get(id); },
        &snap_status);
  }

  storage::SnapshotStats snap_stats = store->snapshot_stats();
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  if (snap.ok()) snap->reset();
  // A failed run (writer error, read error, short snapshot view) writes no
  // JSON, so the CI floor fails loudly instead of passing on garbage.
  if (!writer_status.ok()) FailBench("writer", writer_status);
  if (!read_status.ok()) FailBench("blocking reads", read_status);
  if (!snap_status.ok()) FailBench("snapshot reads", snap_status);

  double blocking_p50 = Percentile(&blocking_us, 0.50);
  double blocking_p99 = Percentile(&blocking_us, 0.99);
  double snapshot_p50 = Percentile(&snapshot_us, 0.50);
  double snapshot_p99 = Percentile(&snapshot_us, 0.99);
  double speedup = snapshot_p99 > 0 ? blocking_p99 / snapshot_p99 : 0;

  TablePrinter table(
      "point-read latency (us) while a writer commits " +
      std::to_string(kBatch) + "-record batches continuously; " +
      std::to_string(commits.load()) + " commits overlapped the runs");
  table.SetHeader({"read path", "p50 us", "p99 us"});
  table.AddRow({"blocking (pool Fetch)", TablePrinter::FormatDouble(blocking_p50),
                TablePrinter::FormatDouble(blocking_p99)});
  table.AddRow({"snapshot (pinned commit)", TablePrinter::FormatDouble(snapshot_p50),
                TablePrinter::FormatDouble(snapshot_p99)});
  table.Print();
  std::printf("snapshot p99 speedup: %.2fx; COW frames held: %llu, "
              "snapshot-cached pages: %llu\n",
              speedup, static_cast<unsigned long long>(snap_stats.cow_frames),
              static_cast<unsigned long long>(snap_stats.cached_pages));

  BenchJsonWriter json("mvcc");
  json.Metric("records", static_cast<double>(kRecords));
  json.Metric("commit_batch", static_cast<double>(kBatch));
  json.Metric("commits_during_run", static_cast<double>(commits.load()));
  json.Metric("blocking_p50_us", blocking_p50, "us");
  json.Metric("blocking_p99_us", blocking_p99, "us");
  json.Metric("snapshot_p50_us", snapshot_p50, "us");
  json.Metric("snapshot_p99_us", snapshot_p99, "us");
  json.Metric("snapshot_p99_speedup", speedup, "x");
  json.Metric("cow_frames_held", static_cast<double>(snap_stats.cow_frames));
  json.Metric("snapshot_cached_pages",
              static_cast<double>(snap_stats.cached_pages));
  json.Write();
}

void PrintTables() { SnapshotLatencyTable(); }

/// A preloaded, committed 64-page store for the timed loops; nullptr (and
/// the state marked skipped) if any store operation fails.
std::unique_ptr<storage::ElementStore> PreloadedStore(
    benchmark::State& state) {
  auto created = storage::ElementStore::Create("", 64);
  Status st = created.ok() ? Preload(created->get()) : created.status();
  if (!st.ok()) {
    state.SkipWithError(st.ToString().c_str());
    return nullptr;
  }
  return created.MoveValueUnsafe();
}

void BM_BlockingGet(benchmark::State& state) {
  auto store = PreloadedStore(state);
  if (store == nullptr) return;
  Rng rng(7);
  for (auto _ : state) {
    auto record = store->Get(MakeId(rng.NextBounded(kRecords)));
    if (!record.ok()) {
      state.SkipWithError(record.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(record);
  }
}
BENCHMARK(BM_BlockingGet);

void BM_SnapshotGet(benchmark::State& state) {
  auto store = PreloadedStore(state);
  if (store == nullptr) return;
  auto snap = store->OpenSnapshot();
  if (!snap.ok()) {
    state.SkipWithError(snap.status().ToString().c_str());
    return;
  }
  Rng rng(7);
  for (auto _ : state) {
    auto record = (*snap)->Get(MakeId(rng.NextBounded(kRecords)));
    if (!record.ok()) {
      state.SkipWithError(record.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(record);
  }
}
BENCHMARK(BM_SnapshotGet);

}  // namespace
}  // namespace bench
}  // namespace ruidx

RUIDX_BENCH_MAIN(ruidx::bench::PrintTables)
