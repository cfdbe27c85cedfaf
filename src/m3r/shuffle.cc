#include "m3r/shuffle.h"

#include <algorithm>
#include <map>

#include "common/logging.h"
#include "serialize/io.h"
#include "serialize/writable.h"

namespace m3r::engine {

namespace {
/// BufferPool categories shared across every job of an engine's sequence.
constexpr char kLaneWireCategory[] = "shuffle.lane.wire";
}  // namespace

ShuffleExchange::ShuffleExchange(int num_places,
                                 const ShuffleOptions& options)
    : num_places_(num_places),
      num_partitions_(options.num_partitions),
      dedup_mode_(options.dedup_mode),
      stability_(options.partition_stability),
      salt_(options.instability_salt),
      workers_(std::max(options.workers_per_place, 1)),
      fault_(options.fault),
      integrity_(options.integrity),
      pool_(options.buffer_pool),
      flush_bytes_(options.flush_bytes),
      partition_budget_bytes_(options.partition_budget_bytes),
      run_comparator_(options.run_comparator),
      spill_sink_(options.spill_sink),
      resident_gauge_(options.resident_gauge),
      map_(options.num_partitions, num_places, options.partition_stability,
           options.instability_salt),
      lanes_(static_cast<size_t>(num_places) * num_places * workers_),
      partitions_(static_cast<size_t>(std::max(options.num_partitions, 1))),
      partition_runs_(static_cast<size_t>(std::max(options.num_partitions,
                                                   1))),
      partition_mu_(new std::mutex[static_cast<size_t>(
          std::max(options.num_partitions, 1))]),
      decode_work_(static_cast<size_t>(num_places)),
      strand_work_(static_cast<size_t>(num_places) * workers_),
      local_pairs_(static_cast<size_t>(num_places)),
      remote_pairs_(static_cast<size_t>(num_places)),
      aliased_pairs_(static_cast<size_t>(num_places)),
      cloned_pairs_(static_cast<size_t>(num_places)) {
  M3R_CHECK(num_places > 0 && options.num_partitions >= 0);
  M3R_CHECK(partition_budget_bytes_ == 0 || spill_sink_ != nullptr)
      << "partition budget requires a spill sink";
}

ShuffleExchange::~ShuffleExchange() {
  // Undrained runs (failed or cancelled job) leave the external gauge.
  if (resident_gauge_ != nullptr) {
    resident_gauge_->fetch_sub(resident_run_bytes_.load(),
                               std::memory_order_relaxed);
  }
  if (pool_ == nullptr) return;
  // Shipped runs recycled their wire buffers at flush time; only the
  // streams of lanes that never reached a barrier drain remain.
  for (Lane& lane : lanes_) {
    if (lane.out != nullptr) {
      pool_->Release(kLaneWireCategory, lane.out->TakeBuffer());
      lane.out.reset();
    }
  }
}

int ShuffleExchange::PlaceOfPartition(int partition) const {
  // The versioned map starts as the stable (or per-job salted, under the
  // ablation) assignment and only ever diverges when a place dies.
  if (partition >= 0 && partition < map_.num_partitions()) {
    return map_.HomeOf(partition);
  }
  // Out-of-range probes (planning heuristics) keep the formulaic answer.
  if (stability_) return StablePlaceOfPartition(partition, num_places_);
  return (partition + salt_) % num_places_;
}

ShuffleExchange::Lane& ShuffleExchange::LaneFor(int src, int dst,
                                                int worker) {
  return lanes_[(static_cast<size_t>(src) * num_places_ + dst) * workers_ +
                worker];
}

const ShuffleExchange::Lane& ShuffleExchange::LaneAt(int src, int dst,
                                                     int worker) const {
  return lanes_[(static_cast<size_t>(src) * num_places_ + dst) * workers_ +
                worker];
}

int ShuffleExchange::DestinationOf(int partition, int worker_lane) const {
  M3R_CHECK(partition >= 0 && partition < num_partitions_)
      << "bad partition " << partition;
  M3R_CHECK(worker_lane >= 0 && worker_lane < workers_)
      << "bad worker lane " << worker_lane;
  return PlaceOfPartition(partition);
}

template <typename WritePair>
void ShuffleExchange::EmitRemote(int src_place, int dst, int partition,
                                 int worker_lane, WritePair&& write_pair) {
  remote_pairs_[static_cast<size_t>(src_place)].fetch_add(
      1, std::memory_order_relaxed);
  // Lane-confined: only the strand owning `worker_lane` touches this
  // stream, so no lock is needed and its bytes are deterministic.
  Lane& lane = LaneFor(src_place, dst, worker_lane);
  if (lane.out == nullptr) {
    lane.out = pool_ != nullptr
                   ? std::make_unique<serialize::DedupOutputStream>(
                         dedup_mode_, pool_->Acquire(kLaneWireCategory))
                   : std::make_unique<serialize::DedupOutputStream>(
                         dedup_mode_);
  }
  const size_t before = lane.out->buffer().size();
  lane.out->WriteControl(static_cast<uint64_t>(partition));
  write_pair(*lane.out);
  sim::CpuWork& work =
      strand_work_[static_cast<size_t>(src_place) * workers_ + worker_lane];
  work.Add(sim::CpuLayer::kEmit, 1, lane.out->buffer().size() - before);

  // Crossing the flush threshold seals the lane segment as a sorted run and
  // ships it now, on the emitting strand — the sort and decode work is
  // counted on the strand's tally and so inside the emitting map task,
  // which is exactly the overlap the pipeline buys. A zero threshold never
  // flushes early: the lane ships whole at the barrier.
  if (flush_bytes_ != 0 && lane.out->buffer().size() >= flush_bytes_) {
    std::string lane_key = std::to_string(src_place) + "->" +
                           std::to_string(dst) + "#" +
                           std::to_string(worker_lane);
    FlushLane(&lane, lane_key, src_place, worker_lane, dst,
              /*orphan=*/false, /*barrier=*/false, &work);
  }
}

void ShuffleExchange::Emit(int src_place, int partition,
                           const serialize::WritablePtr& key,
                           const serialize::WritablePtr& value,
                           bool immutable, int worker_lane) {
  const int dst = DestinationOf(partition, worker_lane);

  // Without the ImmutableOutput promise the HMR contract lets the caller
  // mutate the objects after collect(), so the engine must conservatively
  // copy every pair before anything references it — including the identity
  // map of the de-duplicating serializer (paper §3.2.2.1/§4.1).
  serialize::WritablePtr k = key;
  serialize::WritablePtr v = value;
  if (!immutable) {
    k = key->Clone();
    v = value->Clone();
    cloned_pairs_[static_cast<size_t>(src_place)].fetch_add(
        1, std::memory_order_relaxed);
  }

  if (dst == src_place) {
    // Co-location fast path (paper §3.2.2.1): no network, no disk. The
    // partition sequence is shared by every strand of this place, so the
    // append itself is the one synchronized step.
    local_pairs_[static_cast<size_t>(src_place)].fetch_add(
        1, std::memory_order_relaxed);
    strand_work_[static_cast<size_t>(src_place) * workers_ + worker_lane]
        .Add(sim::CpuLayer::kEmit, 1, 0);
    if (immutable) {
      aliased_pairs_[static_cast<size_t>(src_place)].fetch_add(
          1, std::memory_order_relaxed);
    }
    std::lock_guard<std::mutex> lock(
        partition_mu_[static_cast<size_t>(partition)]);
    partitions_[static_cast<size_t>(partition)].emplace_back(std::move(k),
                                                             std::move(v));
    return;
  }
  EmitRemote(src_place, dst, partition, worker_lane,
             [&](serialize::DedupOutputStream& out) {
               out.WriteObject(k);
               out.WriteObject(v);
             });
}

void ShuffleExchange::EmitSerialized(int src_place, int partition,
                                     const serialize::WritablePtr& key,
                                     const serialize::WritablePtr& value,
                                     std::string_view key_bytes,
                                     std::string_view value_bytes,
                                     int worker_lane) {
  const int dst = DestinationOf(partition, worker_lane);
  if (dst == src_place) {
    // Fresh objects: the co-location alias path needs no bytes.
    Emit(src_place, partition, key, value, /*immutable=*/true, worker_lane);
    return;
  }
  EmitRemote(src_place, dst, partition, worker_lane,
             [&](serialize::DedupOutputStream& out) {
               out.WriteSerialized(key->TypeName(), key_bytes);
               out.WriteSerialized(value->TypeName(), value_bytes);
             });
}

void ShuffleExchange::RecordFailure(Status s) {
  std::lock_guard<std::mutex> lock(status_mu_);
  if (status_.ok()) status_ = std::move(s);
}

Status ShuffleExchange::status() const {
  std::lock_guard<std::mutex> lock(status_mu_);
  return status_;
}

void ShuffleExchange::DiscardLane(Lane* lane) {
  if (lane->out != nullptr) {
    if (pool_ != nullptr) {
      pool_->Release(kLaneWireCategory, lane->out->TakeBuffer());
    }
    lane->out.reset();
  }
  lane->deduped = 0;
  lane->saved_bytes = 0;
  lane->flush_seq = 0;
  lane->wire_shipped = 0;
  lane->barrier_shipped = 0;
}

ShuffleExchange::RecoveryStats ShuffleExchange::DropDeadPlaces(
    const std::vector<int>& newly_dead, const std::vector<int>& survivors) {
  RecoveryStats rs;
  M3R_CHECK(!survivors.empty());
  if (dead_.empty()) dead_.assign(static_cast<size_t>(num_places_), 0);
  for (int d : newly_dead) {
    M3R_CHECK(d >= 0 && d < num_places_ && !dead_[static_cast<size_t>(d)]);
    dead_[static_cast<size_t>(d)] = 1;
  }
  survivors_ = survivors;
  any_dead_ = true;

  // Re-home the dead places' partitions (map version bump) and drop their
  // pre-barrier pairs. Before the barrier partitions_[p] holds exactly the
  // home place's *local* emissions — every remote emission is still
  // buffered in its sender's lane — so the drop loses only work that the
  // dead places' task replay regenerates.
  std::vector<int> moved = map_.Rehome(newly_dead, survivors);
  rs.rehomed_partitions = static_cast<int>(moved.size());
  for (int p : moved) {
    std::lock_guard<std::mutex> lock(
        partition_mu_[static_cast<size_t>(p)]);
    rs.dropped_local_pairs += partitions_[static_cast<size_t>(p)].size();
    kvstore::KVSeq().swap(partitions_[static_cast<size_t>(p)]);
  }

  // The dead places' own outbound lanes (to anyone, dead or alive) carry
  // emissions of tasks that will be replayed; discard them and zero the
  // places' emit stats so nothing is counted twice. Surviving senders'
  // lanes toward the dead places stay put — they are delivered as orphan
  // lanes at the barrier.
  for (int d : newly_dead) {
    for (int dst = 0; dst < num_places_; ++dst) {
      for (int w = 0; w < workers_; ++w) {
        Lane& lane = LaneFor(d, dst, w);
        if (lane.out != nullptr) ++rs.dropped_lanes;
        DiscardLane(&lane);
      }
    }
    local_pairs_[static_cast<size_t>(d)].store(0, std::memory_order_relaxed);
    remote_pairs_[static_cast<size_t>(d)].store(0, std::memory_order_relaxed);
    aliased_pairs_[static_cast<size_t>(d)].store(0,
                                                 std::memory_order_relaxed);
    cloned_pairs_[static_cast<size_t>(d)].store(0, std::memory_order_relaxed);
  }

  // Pre-barrier runs already shipped *from* the dead places are replay
  // duplicates — their source tasks re-run at survivors and re-ship under
  // the bumped map version — so drop them by source tag. Runs shipped *to*
  // a re-homed partition from live senders stay put: the partition moved,
  // its delivered data did not have to.
  for (int p = 0; p < num_partitions_; ++p) {
    std::lock_guard<std::mutex> lock(partition_mu_[static_cast<size_t>(p)]);
    PartitionRuns& pr = partition_runs_[static_cast<size_t>(p)];
    size_t kept = 0;
    for (size_t i = 0; i < pr.runs.size(); ++i) {
      SortedRun& run = pr.runs[i];
      if (std::binary_search(newly_dead.begin(), newly_dead.end(),
                             run.src_place)) {
        ++rs.dropped_runs;
        if (run.resident) {
          pr.resident_bytes -= run.bytes.size();
          AddResidentRunBytes(-static_cast<int64_t>(run.bytes.size()));
        }
        // A spilled dead run leaves its file behind; the engine sweeps the
        // job's spill directory at completion.
        continue;
      }
      if (kept != i) pr.runs[kept] = std::move(run);
      ++kept;
    }
    pr.runs.resize(kept);
  }
  return rs;
}

void ShuffleExchange::CollectOrphanLanes(
    int dst_place, std::vector<Lane*>* lanes, std::vector<std::string>* keys,
    std::vector<std::pair<int, int>>* srcs) {
  if (!any_dead_) return;
  int my_index = -1;
  for (size_t i = 0; i < survivors_.size(); ++i) {
    if (survivors_[i] == dst_place) {
      my_index = static_cast<int>(i);
      break;
    }
  }
  M3R_CHECK(my_index >= 0) << "DeliverTo at dead place " << dst_place;
  // Positional round-robin over every (dead dst, live src, worker) slot:
  // the count advances whether or not the lane has data, so every survivor
  // derives the same assignment with no coordination. Keys keep the lane's
  // original address so fault-site decisions stay stable across recovery.
  size_t k = 0;
  for (int d = 0; d < num_places_; ++d) {
    if (!dead_[static_cast<size_t>(d)]) continue;
    for (int src = 0; src < num_places_; ++src) {
      if (dead_[static_cast<size_t>(src)]) continue;
      for (int w = 0; w < workers_; ++w) {
        bool mine =
            (k++ % survivors_.size()) == static_cast<size_t>(my_index);
        if (!mine) continue;
        Lane& lane = LaneFor(src, d, w);
        if (lane.out == nullptr) continue;
        lanes->push_back(&lane);
        keys->push_back(std::to_string(src) + "->" + std::to_string(d) +
                        "#" + std::to_string(w));
        srcs->emplace_back(src, w);
      }
    }
  }
}

uint64_t ShuffleExchange::OrphanWireBytesFor(int dst_place) const {
  if (!any_dead_) return 0;
  int my_index = -1;
  for (size_t i = 0; i < survivors_.size(); ++i) {
    if (survivors_[i] == dst_place) {
      my_index = static_cast<int>(i);
      break;
    }
  }
  if (my_index < 0) return 0;
  // Mirrors CollectOrphanLanes' positional assignment exactly.
  uint64_t bytes = 0;
  size_t k = 0;
  for (int d = 0; d < num_places_; ++d) {
    if (!dead_[static_cast<size_t>(d)]) continue;
    for (int src = 0; src < num_places_; ++src) {
      if (dead_[static_cast<size_t>(src)]) continue;
      for (int w = 0; w < workers_; ++w) {
        bool mine =
            (k++ % survivors_.size()) == static_cast<size_t>(my_index);
        if (!mine) continue;
        bytes += LaneAt(src, d, w).barrier_shipped;
      }
    }
  }
  return bytes;
}

void ShuffleExchange::AddResidentRunBytes(int64_t delta) {
  uint64_t now;
  if (delta >= 0) {
    const uint64_t d = static_cast<uint64_t>(delta);
    now = resident_run_bytes_.fetch_add(d, std::memory_order_relaxed) + d;
    if (resident_gauge_ != nullptr) {
      resident_gauge_->fetch_add(d, std::memory_order_relaxed);
    }
  } else {
    const uint64_t d = static_cast<uint64_t>(-delta);
    now = resident_run_bytes_.fetch_sub(d, std::memory_order_relaxed) - d;
    if (resident_gauge_ != nullptr) {
      resident_gauge_->fetch_sub(d, std::memory_order_relaxed);
    }
  }
  uint64_t prev = peak_resident_run_bytes_.load(std::memory_order_relaxed);
  while (now > prev && !peak_resident_run_bytes_.compare_exchange_weak(
                           prev, now, std::memory_order_relaxed)) {
  }
}

void ShuffleExchange::SpillOverBudgetLocked(int partition,
                                            PartitionRuns* pr) {
  if (partition_budget_bytes_ == 0) return;
  for (SortedRun& run : pr->runs) {
    if (pr->resident_bytes <= partition_budget_bytes_) break;
    if (!run.resident || run.bytes.empty()) continue;
    std::string id =
        "p" + std::to_string(partition) + ".run." +
        std::to_string(spill_counter_.fetch_add(1, std::memory_order_relaxed));
    run.spill_crc = StampCrc(integrity_.get(), run.bytes);
    Status s = spill_sink_->Write(id, run.bytes);
    if (!s.ok()) {
      // Keep the run resident over budget rather than lose data.
      RecordFailure(std::move(s));
      return;
    }
    const uint64_t bytes = run.bytes.size();
    pr->resident_bytes -= bytes;
    AddResidentRunBytes(-static_cast<int64_t>(bytes));
    run.bytes.clear();
    run.bytes.shrink_to_fit();
    run.resident = false;
    run.spill_id = std::move(id);
    overflow_spills_.fetch_add(1, std::memory_order_relaxed);
  }
}

void ShuffleExchange::AppendRun(int partition, SortedRun run) {
  const uint64_t bytes = run.bytes.size();
  std::lock_guard<std::mutex> lock(
      partition_mu_[static_cast<size_t>(partition)]);
  PartitionRuns& pr = partition_runs_[static_cast<size_t>(partition)];
  pr.resident_bytes += bytes;
  pr.total_bytes += bytes;
  AddResidentRunBytes(static_cast<int64_t>(bytes));
  pr.runs.push_back(std::move(run));
  SpillOverBudgetLocked(partition, &pr);
}

void ShuffleExchange::FlushLane(Lane* lane, const std::string& lane_key,
                                int src_place, int worker, int dst_place,
                                bool orphan, bool barrier,
                                sim::CpuWork* work) {
  lane->deduped += lane->out->objects_deduped();
  lane->saved_bytes += lane->out->bytes_saved();
  std::string wire = lane->out->TakeBuffer();
  if (barrier) {
    lane->out.reset();
  } else {
    // Fresh stream per run: the de-dup identity map resets (runs decode
    // independently), and the pooled buffer cycles per run so the decaying
    // size hint tracks run size, not whole-lane size.
    lane->out = pool_ != nullptr
                    ? std::make_unique<serialize::DedupOutputStream>(
                          dedup_mode_, pool_->Acquire(kLaneWireCategory))
                    : std::make_unique<serialize::DedupOutputStream>(
                          dedup_mode_);
  }
  auto recycle = [&] {
    if (pool_ != nullptr && wire.capacity() > 0) {
      pool_->Release(kLaneWireCategory, std::move(wire));
    }
  };
  if (wire.empty()) {
    // The lane flushed on its last emission; nothing residual to ship.
    recycle();
    return;
  }
  const uint64_t seq = lane->flush_seq++;
  lane->wire_shipped += wire.size();
  if (barrier) lane->barrier_shipped += wire.size();

  if (fault_ != nullptr) {
    Status s = fault_->Check("channel.send", lane_key);
    if (s.ok()) s = fault_->Check("channel.decode", lane_key);
    if (!s.ok()) {
      // The run's pairs are lost; the partitions it fed are incomplete, so
      // the caller must treat status() as fatal for the job.
      RecordFailure(std::move(s));
      recycle();
      return;
    }
  }

  // Sender stamps the frame; the receiver verifies before any byte is
  // deserialized, so a flipped bit can never reach DedupInputStream (whose
  // bounds checks abort, not error). In repair mode a bad frame falls back
  // to the sender's buffer — the in-memory analogue of a retransmission. A
  // run is one checksummed hop whether it ships early or at the drain.
  uint32_t crc = StampCrc(integrity_.get(), wire);
  std::string corrupted;
  const std::string* served = &wire;
  Status verdict =
      ReceiveChecked(integrity_.get(), kCorruptChannelFrame, lane_key, crc,
                     wire, &corrupted, &served);
  if (!verdict.ok()) {
    RecordFailure(std::move(verdict));
    recycle();
    return;
  }

  // Decode in emission order, bucketed per partition, as (key, value) spans
  // of the sender's own field bytes: no record is materialized as a
  // Writable between emit and reduce, and a back-reference span repeats the
  // bytes of the object it names. The spans point into the served frame,
  // so it stays alive (and out of the pool) until every run is cut.
  struct Bucket {
    std::vector<std::string_view> keys;
    std::vector<std::string_view> values;
    uint32_t key_type = 0;
    uint32_t value_type = 0;
  };
  std::map<int, Bucket> buckets;
  uint64_t decoded = 0;
  serialize::DedupInputStream in{std::string_view(*served)};
  std::string_view key, value;
  uint32_t key_type = 0, value_type = 0;
  while (!in.AtEnd()) {
    int partition = static_cast<int>(in.ReadControl());
    M3R_CHECK(in.ReadObjectBytes(&key, &key_type) &&
              in.ReadObjectBytes(&value, &value_type))
        << "truncated shuffle record";
    M3R_CHECK(partition >= 0 && partition < num_partitions_);
    if (orphan) {
      M3R_CHECK(dead_.empty() ||
                !dead_[static_cast<size_t>(PlaceOfPartition(partition))]);
    } else {
      M3R_CHECK(PlaceOfPartition(partition) == dst_place);
    }
    Bucket& b = buckets[partition];
    if (b.keys.empty()) {
      b.key_type = key_type;
      b.value_type = value_type;
    }
    b.keys.push_back(key);
    b.values.push_back(value);
    ++decoded;
  }
  work->Add(sim::CpuLayer::kDecode, decoded, served->size());

  // Seal one sorted run per partition touched: sortkit prefix sort over the
  // key spans (the custom comparator only when the job overrides byte
  // order), then copy the records out in sorted order.
  const uint64_t version = map_.version();
  for (auto& [partition, b] : buckets) {
    sortkit::SortOptions sort_options;
    sort_options.comparator = run_comparator_;
    std::vector<uint32_t> perm =
        sortkit::StableSortPermutation(b.keys, sort_options);
    work->Add(sim::CpuLayer::kSort, b.keys.size(), 0);
    serialize::DataOutput out;
    for (uint32_t i : perm) {
      out.WriteString(b.keys[i]);
      out.WriteString(b.values[i]);
    }
    SortedRun run;
    run.src_place = src_place;
    run.worker_lane = worker;
    run.seq = seq;
    run.map_version = version;
    run.records = b.keys.size();
    run.bytes = out.Take();
    run.key_type = in.TypeName(b.key_type);
    run.value_type = in.TypeName(b.value_type);
    AppendRun(partition, std::move(run));
  }
  recycle();
  runs_shipped_.fetch_add(1, std::memory_order_relaxed);
}

Status ShuffleExchange::CollectPartitionRuns(int partition,
                                             std::vector<SortedRun>* out) {
  out->clear();
  std::lock_guard<std::mutex> lock(
      partition_mu_[static_cast<size_t>(partition)]);
  PartitionRuns& pr = partition_runs_[static_cast<size_t>(partition)];
  for (SortedRun& run : pr.runs) {
    if (!run.resident) {
      // Lazy merge-back: an overflow run only returns to memory here, when
      // its reduce task is about to merge it.
      std::string payload;
      Status s = spill_sink_->Read(run.spill_id, &payload);
      if (!s.ok()) return s;
      std::string corrupted;
      const std::string* served = &payload;
      Status verdict =
          ReceiveChecked(integrity_.get(), kCorruptSpill, run.spill_id,
                         run.spill_crc, payload, &corrupted, &served);
      if (!verdict.ok()) return verdict;
      run.bytes = served == &payload ? std::move(payload) : *served;
      run.resident = true;
    }
    out->push_back(std::move(run));
  }
  // The drained bytes now belong to the reduce task's working set.
  AddResidentRunBytes(-static_cast<int64_t>(pr.resident_bytes));
  pr.runs.clear();
  pr.resident_bytes = 0;
  return Status::OK();
}

void ShuffleExchange::DeliverTo(int dst_place, Executor* executor,
                                int max_workers) {
  // Gather this destination's non-empty streams in deterministic
  // (source place, lane) order.
  std::vector<Lane*> inbound;
  std::vector<std::string> keys;
  std::vector<std::pair<int, int>> srcs;
  for (int src = 0; src < num_places_; ++src) {
    if (any_dead_ && dead_[static_cast<size_t>(src)]) continue;
    for (int w = 0; w < workers_; ++w) {
      Lane& lane = LaneFor(src, dst_place, w);
      if (lane.out == nullptr) continue;
      inbound.push_back(&lane);
      keys.push_back(std::to_string(src) + "->" + std::to_string(dst_place) +
                     "#" + std::to_string(w));
      srcs.emplace_back(src, w);
    }
  }
  // After a recovery round, survivors also pick up their share of the
  // lanes addressed to dead places (decoded under the current map).
  size_t first_orphan = inbound.size();
  CollectOrphanLanes(dst_place, &inbound, &keys, &srcs);
  std::vector<sim::CpuWork>& work =
      decode_work_[static_cast<size_t>(dst_place)];
  work.assign(inbound.size(), sim::CpuWork{});
  // The barrier drain ships each lane's residual segment as one last
  // sorted run (decoded + sealed by FlushLane); its work is counted per
  // stream here.
  auto deliver_one = [&](size_t i) {
    FlushLane(inbound[i], keys[i], srcs[i].first, srcs[i].second, dst_place,
              i >= first_orphan, /*barrier=*/true, &work[i]);
  };
  if (executor != nullptr && inbound.size() > 1 && max_workers > 1) {
    executor->ParallelFor(inbound.size(), deliver_one, max_workers);
  } else {
    for (size_t i = 0; i < inbound.size(); ++i) deliver_one(i);
  }
}

const std::vector<sim::CpuWork>& ShuffleExchange::DecodeWork(
    int dst_place) const {
  return decode_work_[static_cast<size_t>(dst_place)];
}

sim::CpuWork ShuffleExchange::TakeStrandWork(int src_place, int worker_lane) {
  return std::exchange(
      strand_work_[static_cast<size_t>(src_place) * workers_ + worker_lane],
      sim::CpuWork{});
}

const kvstore::KVSeq& ShuffleExchange::PartitionPairs(int partition) const {
  return partitions_[static_cast<size_t>(partition)];
}

uint64_t ShuffleExchange::WireBytes(int src_place, int dst_place) const {
  uint64_t bytes = 0;
  for (int w = 0; w < workers_; ++w) {
    bytes += LaneAt(src_place, dst_place, w).wire_shipped;
  }
  return bytes;
}

uint64_t ShuffleExchange::BarrierWireBytes(int src_place,
                                           int dst_place) const {
  uint64_t bytes = 0;
  for (int w = 0; w < workers_; ++w) {
    bytes += LaneAt(src_place, dst_place, w).barrier_shipped;
  }
  return bytes;
}

ShuffleExchange::Stats ShuffleExchange::ComputeStats() const {
  Stats s;
  for (int p = 0; p < num_places_; ++p) {
    s.local_pairs += local_pairs_[static_cast<size_t>(p)].load();
    s.remote_pairs += remote_pairs_[static_cast<size_t>(p)].load();
    s.aliased_pairs += aliased_pairs_[static_cast<size_t>(p)].load();
    s.cloned_pairs += cloned_pairs_[static_cast<size_t>(p)].load();
  }
  for (const Lane& lane : lanes_) {
    s.deduped_objects += lane.deduped;
    s.dedup_saved_bytes += lane.saved_bytes;
    s.total_wire_bytes += lane.wire_shipped;
  }
  s.runs_shipped = runs_shipped_.load(std::memory_order_relaxed);
  s.overflow_spills = overflow_spills_.load(std::memory_order_relaxed);
  s.peak_resident_run_bytes =
      peak_resident_run_bytes_.load(std::memory_order_relaxed);
  for (int p = 0; p < num_partitions_; ++p) {
    std::lock_guard<std::mutex> lock(partition_mu_[static_cast<size_t>(p)]);
    s.max_partition_run_bytes =
        std::max(s.max_partition_run_bytes,
                 partition_runs_[static_cast<size_t>(p)].total_bytes);
  }
  return s;
}

}  // namespace m3r::engine
