// Update phase: one writer applies seeded structural updates to an
// ingested document and its store while the workload's open-loop reader
// threads run batches of point Gets through MVCC snapshots.
//
// Each update is half an insertion of a bidder subtree under a random
// open_auction and half a removal of a random bidder. The writer calls
// Ruid2Scheme::InsertAndRelabel / RemoveAndRelabel (timed), diffs the
// labels of the area the update landed in (untimed), then calls
// ElementStore::Remove for each stale id and Put for each new or moved
// record (timed). Every 32 updates it commits with Flush.
#include <thread>
#include <unordered_set>

#include "phases.h"
#include "util/random.h"

namespace perfbench {

namespace core = ruidx::core;
namespace storage = ruidx::storage;
namespace xml = ruidx::xml;

namespace {

constexpr int kCommitEvery = 32;
constexpr int kReaderBatch = 512;
constexpr std::chrono::microseconds kReaderPeriod{50000};
constexpr uint64_t kBatchesPerSnapshot = 10;

using LabelMap = std::unordered_map<uint32_t, core::Ruid2Id>;

bool IsAreaRoot(const core::Ruid2Scheme& scheme, const xml::Node* n) {
  return scheme.label(n).is_area_root;
}

// Root of the area whose local enumeration holds the children of `n`.
xml::Node* ExpandRoot(const core::Ruid2Scheme& scheme, xml::Node* n) {
  if (IsAreaRoot(scheme, n)) return n;
  for (xml::Node* a = n->parent(); a != nullptr && !a->is_document();
       a = a->parent()) {
    if (IsAreaRoot(scheme, a)) return a;
  }
  return n;
}

// Root of the area whose local enumeration holds `n` itself.
xml::Node* MemberRoot(const core::Ruid2Scheme& scheme, xml::Node* n) {
  if (n->parent() == nullptr || n->parent()->is_document()) return n;
  return ExpandRoot(scheme, n->parent());
}

// Members of the area rooted at `root`, in preorder: the root's children
// and everything below them down to (and including) the next area roots.
std::vector<xml::Node*> AreaMembers(const core::Ruid2Scheme& scheme,
                                    xml::Node* root) {
  std::vector<xml::Node*> out;
  std::vector<xml::Node*> stack(root->children().rbegin(),
                                root->children().rend());
  while (!stack.empty()) {
    xml::Node* n = stack.back();
    stack.pop_back();
    out.push_back(n);
    if (IsAreaRoot(scheme, n)) continue;
    for (auto it = n->children().rbegin(); it != n->children().rend(); ++it) {
      stack.push_back(*it);
    }
  }
  return out;
}

storage::ElementRecord RecordOf(const core::Ruid2Scheme& scheme,
                                const xml::Node* n) {
  storage::ElementRecord r;
  r.id = scheme.label(n);
  const bool is_root = n->parent() == nullptr || n->parent()->is_document();
  r.parent_id = is_root ? r.id : scheme.label(n->parent());
  r.node_type = static_cast<uint8_t>(n->type());
  r.name = n->name();
  if (!n->is_element()) r.value = n->value();
  return r;
}

struct ReaderTarget {
  core::Ruid2Id id;
  std::string name;
  uint8_t type;
};

struct ReaderOut {
  std::vector<float> latency_us[2];  // [traced]
  Samples lateness_us;               // batch start against its due time
  uint64_t skipped = 0;              // due slots a late batch overran
};

// An open-loop reader: a batch of kReaderBatch point Gets is due every
// kReaderPeriod whatever the store does. The reader reads through one
// snapshot for kBatchesPerSnapshot batches, then releases it and opens a
// fresh one, so it follows the commits with a bounded lag. A batch that
// overruns its slot makes the next one start late; slots it overran are
// skipped and counted, not queued.
void ReaderLoop(storage::ElementStore* store,
                const std::vector<ReaderTarget>* targets, uint64_t seed,
                Clock::time_point due, const std::atomic<bool>* stop,
                ReaderOut* out) {
  ruidx::Rng rng(seed);
  std::unique_ptr<storage::StoreSnapshot> snap;
  for (uint64_t batch = 0;; ++batch) {
    std::this_thread::sleep_until(due);
    if (stop->load(std::memory_order_relaxed)) break;
    out->lateness_us.Add(MicrosBetween(due, Clock::now()));
    std::unique_ptr<OpTrace> trace = MaybeTrace("update.reader", batch);
    OpTrace* tr = trace.get();
    if (batch % kBatchesPerSnapshot == 0) {
      snap.reset();
      Span open_span(tr, "storage.OpenSnapshot");
      auto opened = store->OpenSnapshot();
      open_span.End();
      if (Ops().Record(opened.status(), "ElementStore::OpenSnapshot")) {
        snap = opened.MoveValueUnsafe();
      }
    }
    if (snap != nullptr) {
      std::vector<float>& latency = out->latency_us[tr ? 1 : 0];
      Span gets(tr, "storage.SnapshotGetBatch");
      for (int i = 0; i < kReaderBatch; ++i) {
        const ReaderTarget& t = (*targets)[rng.NextBounded(targets->size())];
        auto a = Clock::now();
        auto record = snap->Get(t.id);
        auto b = Clock::now();
        if (!Ops().Record(record.status(), "StoreSnapshot::Get")) continue;
        latency.push_back(static_cast<float>(MicrosBetween(a, b)));
        if (record->name != t.name || record->node_type != t.type) {
          WrongAnswer("snapshot Get(" + t.id.ToString() + ") returned " +
                      record->name + ", expected " + t.name);
        }
      }
    }
    due += kReaderPeriod;
    for (auto now = Clock::now(); due < now; due += kReaderPeriod) {
      ++out->skipped;
    }
  }
}

class Writer {
 public:
  Writer(UpdateSamples* out, storage::ElementStore* store, Ingested* in,
         uint64_t seed)
      : out_(out),
        store_(store),
        scheme_(in->scheme.get()),
        doc_(in->doc.get()),
        rng_(seed) {
    scheme_->ForEachLabeled([&](xml::Node* n, const core::Ruid2Id& id) {
      labels_.emplace(n->serial(), id);
    });
    xml::PreorderTraverse(doc_->root(), [&](xml::Node* n, int) {
      if (n->is_element() && n->name() == "open_auction") {
        auctions_.push_back(n);
      }
      if (n->is_element() && n->name() == "bidder") bidders_.push_back(n);
      return true;
    });
    if (auctions_.empty()) SetupFailure("document has no open_auction");
  }

  /// Elements no update can relabel: outside the open_auctions subtree and
  /// not members of an area an update lands in.
  std::vector<ReaderTarget> StableTargets() const {
    std::unordered_set<const xml::Node*> touched;
    for (xml::Node* a : auctions_) touched.insert(ExpandRoot(*scheme_, a));
    std::vector<ReaderTarget> out;
    xml::PreorderTraverse(doc_->root(), [&](xml::Node* n, int) {
      if (n->name() == "open_auctions") return false;
      if (n->is_element() && !touched.contains(MemberRoot(*scheme_, n)) &&
          !touched.contains(n)) {
        out.push_back({scheme_->label(n), n->name(),
                       static_cast<uint8_t>(n->type())});
      }
      return true;
    });
    return out;
  }

  /// One seeded update; returns false when an operation failed.
  bool Update() {
    const uint64_t seq = out_->updates++;
    const bool remove = !bidders_.empty() && rng_.NextBool(0.5);
    std::unique_ptr<OpTrace> trace =
        MaybeTrace(remove ? "update.remove" : "update.insert", seq);
    OpTrace* tr = trace.get();

    // Untimed preparation: pick the target, build the detached subtree.
    xml::Node* parent = nullptr;
    xml::Node* victim = nullptr;
    xml::Node* fresh = nullptr;
    size_t pos = 0;
    std::vector<uint32_t> gone;
    if (remove) {
      size_t i = rng_.NextBounded(bidders_.size());
      victim = bidders_[i];
      bidders_[i] = bidders_.back();
      bidders_.pop_back();
      parent = victim->parent();
      xml::PreorderTraverse(victim, [&](xml::Node* n, int) {
        gone.push_back(n->serial());
        return true;
      });
    } else {
      parent = auctions_[rng_.NextBounded(auctions_.size())];
      pos = rng_.NextBounded(parent->fanout() + 1);
      fresh = doc_->CreateElement("bidder");
      xml::Node* increase = doc_->CreateElement("increase");
      bool ok = Ops().Record(
          doc_->AppendChild(increase, doc_->CreateText(std::to_string(
                                          1 + rng_.NextBounded(20)))),
          "Document::AppendChild");
      ok = Ops().Record(doc_->AppendChild(fresh, increase),
                        "Document::AppendChild") &&
           ok;
      if (!ok) return false;
    }

    auto t0 = Clock::now();
    Span relabel_span(tr, remove ? "core.RemoveAndRelabel"
                                 : "core.InsertAndRelabel");
    auto report = remove ? scheme_->RemoveAndRelabel(doc_, victim)
                         : scheme_->InsertAndRelabel(doc_, parent, pos, fresh);
    relabel_span.End();
    auto t1 = Clock::now();
    if (!Ops().Record(report.status(), remove ? "RemoveAndRelabel"
                                              : "InsertAndRelabel")) {
      return false;
    }
    if (!remove) bidders_.push_back(fresh);

    // Untimed: which records went stale. A report that touched one area
    // and dropped none is diffed over that area; anything else over the
    // whole document.
    std::vector<xml::Node*> region;
    if (report->areas_touched <= 1 && report->areas_dropped == 0) {
      region = AreaMembers(*scheme_, ExpandRoot(*scheme_, parent));
    } else {
      xml::PreorderTraverse(doc_->root(), [&](xml::Node* n, int) {
        region.push_back(n);
        return true;
      });
    }
    std::vector<core::Ruid2Id> removals;
    for (uint32_t serial : gone) {
      removals.push_back(labels_.at(serial));
      labels_.erase(serial);
    }
    std::unordered_set<uint32_t> changed;
    std::vector<const xml::Node*> writes;
    for (xml::Node* n : region) {
      const core::Ruid2Id& id = scheme_->label(n);
      auto it = labels_.find(n->serial());
      const bool moved = it == labels_.end() || it->second != id;
      if (moved) {
        if (it != labels_.end()) removals.push_back(it->second);
        labels_[n->serial()] = id;
        changed.insert(n->serial());
      }
      if (moved || changed.contains(n->parent()->serial())) writes.push_back(n);
    }
    // Children in other areas keep their ids but carry a moved parent id.
    std::unordered_set<const xml::Node*> queued(writes.begin(), writes.end());
    for (size_t i = 0, n = writes.size(); i < n; ++i) {
      if (!changed.contains(writes[i]->serial())) continue;
      for (const xml::Node* child : writes[i]->children()) {
        if (queued.insert(child).second) writes.push_back(child);
      }
    }

    auto t2 = Clock::now();
    bool ok = true;
    for (const core::Ruid2Id& id : removals) {
      Span span(tr, "storage.Remove");
      ok = Ops().Record(store_->Remove(id), "ElementStore::Remove") && ok;
    }
    for (const xml::Node* n : writes) {
      storage::ElementRecord record = RecordOf(*scheme_, n);
      Span span(tr, "storage.Put");
      ok = Ops().Record(store_->Put(record), "ElementStore::Put") && ok;
    }
    auto t3 = Clock::now();
    if (tr != nullptr) {
      tr->Close(1);
      tr->Counter("relabeled", static_cast<double>(report->relabeled));
      tr->Counter("areas_touched", static_cast<double>(report->areas_touched));
      tr->Counter("writes", static_cast<double>(removals.size() + writes.size()));
    }
    if (!ok) return false;
    const double relabel_us = MicrosBetween(t0, t1);
    const double update_us = relabel_us + MicrosBetween(t2, t3);
    pending_.emplace_back(tr != nullptr, update_us);
    return true;
  }

  bool Commit() {
    std::unique_ptr<OpTrace> trace = MaybeTrace("update.commit", out_->commits);
    OpTrace* tr = trace.get();
    const uint64_t cow = store_->snapshot_stats().cow_frames;
    const storage::PagerStats before = store_->pager_stats();
    auto t0 = Clock::now();
    Span span(tr, "storage.Flush");
    ruidx::Status st = store_->Flush();
    span.End();
    auto t1 = Clock::now();
    ++out_->commits;
    if (!Ops().Record(st, "ElementStore::Flush")) return false;
    if (tr != nullptr) {
      const storage::PagerStats after = store_->pager_stats();
      tr->Counter("cow_frames", static_cast<double>(cow));
      tr->Counter("syncs", static_cast<double>(after.syncs - before.syncs));
      tr->Counter("pages_written", static_cast<double>(after.physical_writes -
                                                       before.physical_writes));
    }
    // Only committed updates count, so a failed turn's last, uncommitted
    // updates never reach the samples.
    const double us = MicrosBetween(t0, t1);
    out_->commit_ms[tr ? 1 : 0].Add(us / 1e3);
    out_->busy_us += us;
    for (const auto& [traced, update_us] : pending_) {
      out_->update_us[traced ? 1 : 0].Add(update_us);
      out_->busy_us += update_us;
    }
    out_->committed += pending_.size();
    pending_.clear();
    return true;
  }

  /// Every store record against the scheme's labels.
  void CheckStore() {
    std::unordered_map<core::Ruid2Id, const xml::Node*, core::Ruid2IdHash>
        expect;
    scheme_->ForEachLabeled([&](xml::Node* n, const core::Ruid2Id& id) {
      expect.emplace(id, n);
    });
    uint64_t seen = 0;
    std::string bad;
    ruidx::Status st = store_->ScanAll(
        [&](const storage::BPlusTree::Key&, const storage::ElementRecord& r) {
          auto it = expect.find(r.id);
          storage::ElementRecord want;
          if (it != expect.end()) want = RecordOf(*scheme_, it->second);
          if (it == expect.end() || r.name != want.name ||
              r.node_type != want.node_type || r.parent_id != want.parent_id) {
            bad = r.id.ToString();
            return false;
          }
          ++seen;
          return true;
        });
    if (!Ops().Record(st, "ElementStore::ScanAll")) {
      SetupFailure("final scan: " + st.ToString());
    }
    if (ShouldCorrupt("scan")) ++seen;
    if (!bad.empty() || seen != expect.size()) {
      WrongAnswer("store disagrees with the scheme after updates at " +
                  (bad.empty() ? std::to_string(seen) + " records" : bad) +
                  ", scheme has " + std::to_string(expect.size()));
    }
  }

 private:
  UpdateSamples* out_;
  storage::ElementStore* store_;
  core::Ruid2Scheme* scheme_;
  xml::Document* doc_;
  ruidx::Rng rng_;
  LabelMap labels_;
  std::vector<xml::Node*> auctions_;
  std::vector<xml::Node*> bidders_;
  /// (traced, µs) of the updates since the last commit.
  std::vector<std::pair<bool, double>> pending_;
};

}  // namespace

struct UpdatePhase::Impl {
  Impl(RunState* run, Ingested* in)
      : s(run),
        store(ReopenStore(in->path, run->spec->pool_pages)),
        writer(&run->update, store.get(), in,
               Opts().seed * 0xD1B54A32D192ED03ULL + 5 + run->ingest.rounds),
        targets(writer.StableTargets()) {
    if (targets.empty()) SetupFailure("no stable reader targets");
    s->update.reader_targets = targets.size();
  }

  RunState* s;
  std::unique_ptr<storage::ElementStore> store;
  Writer writer;
  const std::vector<ReaderTarget> targets;
  uint64_t runs = 0;
};

UpdatePhase::UpdatePhase(RunState* s, Ingested* in)
    : impl_(std::make_unique<Impl>(s, in)) {}

UpdatePhase::~UpdatePhase() = default;

void UpdatePhase::Run(double budget_s) {
  Impl& p = *impl_;
  const uint64_t run = p.runs++;
  std::atomic<bool> stop{false};
  const int n_readers = p.s->spec->readers;
  std::vector<ReaderOut> reader_out(n_readers);
  std::vector<std::thread> readers;
  const Clock::time_point first_due = Clock::now();
  for (int i = 0; i < n_readers; ++i) {
    // The readers' schedules are staggered evenly over a period.
    readers.emplace_back(ReaderLoop, p.store.get(), &p.targets,
                         Opts().seed * 31 + static_cast<uint64_t>(i) +
                             1000 * (run + 1000 * static_cast<uint64_t>(
                                                     p.s->ingest.rounds)),
                         first_due + i * kReaderPeriod / n_readers, &stop,
                         &reader_out[i]);
  }
  auto start = Clock::now();
  bool ok = true;
  for (int n = 1; ok; ++n) {
    ok = p.writer.Update();
    if (ok && n % kCommitEvery == 0) {
      ok = p.writer.Commit();
      if (MicrosBetween(start, Clock::now()) / 1e6 >= budget_s) break;
    }
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  if (!ok) SetupFailure("an update failed; the store no longer matches");

  UpdateSamples& u = p.s->update;
  for (const ReaderOut& r : reader_out) {
    for (int k = 0; k < 2; ++k) {
      for (float v : r.latency_us[k]) u.snapshot_us[k].Add(v);
    }
    u.reader_lateness_us.Append(r.lateness_us);
    u.reader_skipped += r.skipped;
  }
}

void UpdatePhase::Finish() {
  Impl& p = *impl_;
  Ops().Record(p.store->Flush(), "ElementStore::Flush");
  p.writer.CheckStore();
  p.s->update.bloom_fpr = p.store->secondary_stats().bloom.estimated_fpr;
}

void ReportUpdate(const RunState& s, Report* report) {
  Report& rep = *report;
  const UpdateSamples& u = s.update;
  rep.ContextNum("updates_committed", static_cast<double>(u.committed));
  rep.ContextNum("snapshot_reads", static_cast<double>(u.snapshot_us[0].size() +
                                                       u.snapshot_us[1].size()));
  rep.ContextNum("reader_targets", static_cast<double>(u.reader_targets));
  rep.ContextNum("reader_period_us",
                 static_cast<double>(kReaderPeriod.count()));
  rep.ContextNum("reader_batches",
                 static_cast<double>(u.reader_lateness_us.size()));
  rep.ContextNum("reader_lateness_p99_us", u.reader_lateness_us.Quantile(0.99));
  rep.ContextNum("reader_skipped_slots", static_cast<double>(u.reader_skipped));
  if (!Opts().trace) {
    rep.Add("update_p50_us", u.update_us[0].Quantile(0.5), "us");
    return;
  }
  // Writer throughput, the update tail, commit latency and snapshot reads
  // swing with the shared disk's journal latency and with reader/writer
  // contention by more than any bound could hold, so they are reported
  // here, unbounded, from the untraced half of the traced run.
  rep.Add("update.ops_s",
          u.busy_us > 0 ? static_cast<double>(u.committed) / (u.busy_us / 1e6)
                        : 0,
          "1/s");
  rep.Add("update.p99_us", u.update_us[0].Quantile(0.99), "us");
  rep.Add("update.commit_p50_ms", u.commit_ms[0].Quantile(0.5), "ms");
  rep.Add("update.snapshot_read_p99_us", u.snapshot_us[0].Quantile(0.99),
          "us");
  rep.Add("trace.overhead_update_pct",
          OverheadPct(u.update_us[1], u.update_us[0]),
          "%");
  Samples relabel = SpanMicros("update.insert", "core.InsertAndRelabel");
  relabel.Append(SpanMicros("update.remove", "core.RemoveAndRelabel"));
  rep.Add("core.relabel_p50_us", relabel.Quantile(0.5), "us");
  rep.Add("core.relabel_p99_us", relabel.Quantile(0.99), "us");
  Samples relabeled = CounterPerOp("update.insert", "relabeled");
  relabeled.Append(CounterPerOp("update.remove", "relabeled"));
  rep.Add("core.relabeled_per_update",
          relabeled.Mean(), "count");
  Samples touched = CounterPerOp("update.insert", "areas_touched");
  touched.Append(CounterPerOp("update.remove", "areas_touched"));
  rep.Add("core.areas_touched_per_update",
          touched.Mean(), "count");
  Samples put = SpanMicros("update.insert", "storage.Put");
  put.Append(SpanMicros("update.remove", "storage.Put"));
  rep.Add("storage.put_us", put.Median(), "us");
  Samples remove = SpanMicros("update.insert", "storage.Remove");
  remove.Append(SpanMicros("update.remove", "storage.Remove"));
  rep.Add("storage.remove_us", remove.Median(), "us");
  Samples writes = CounterPerOp("update.insert", "writes");
  writes.Append(CounterPerOp("update.remove", "writes"));
  rep.Add("storage.writes_per_update",
          writes.Mean(), "count");
  rep.Add("storage.commit_ms",
          SpanMicros("update.commit", "storage.Flush").Median() / 1e3, "ms");
  rep.Add("storage.syncs_per_commit",
          CounterPerOp("update.commit", "syncs").Median(), "count");
  rep.Add("storage.pages_written_per_commit",
          CounterPerOp("update.commit", "pages_written").Median(), "pages");
  rep.Add("storage.cow_frames",
          CounterPerOp("update.commit", "cow_frames").Median(), "count");
  rep.Add("storage.snapshot_open_us",
          SpanMicros("update.reader", "storage.OpenSnapshot").Median(), "us");
  rep.Add("storage.bloom_fpr", u.bloom_fpr, "ratio");
}

}  // namespace perfbench
