#include "sim/cost_model.h"

#include <bit>

namespace m3r::sim {

namespace {
/// Host CPU seconds per record and per byte of each CpuLayer, in CpuLayer
/// order (kSort: per compare). Fitted once by non-negative least squares
/// against thread-CPU seconds measured around the same work, at the seven
/// sites that used to time it (the M3R map task, barrier decode stream,
/// reduce task and partition sort; the Hadoop map task, spill sorts and
/// reduce task). Samples: 90k tasks and streams from the three perfbench
/// workloads (seed 7) and every arm of the smoke rows of
/// bench/m3r_experiments, Release build, on a 4-vCPU Intel Xeon VM (load
/// average about 1.5), 2026-10-18. Fit error by site, counted total
/// against measured total (median per-sample error):
///   M3R map +12.5% (22%), decode +35.7% (28%), reduce -6.6% (19%),
///   sort +66.3% (117%); Hadoop map -13.2% (23%), reduce +8.5% (30%),
///   sort +99.3% (98%).
/// The sorts are the smallest sites (0.07 s of the 18 s measured). A rate
/// at 0 is one the fit had no use for, next to the rates it kept.
//                           map      emit     decode    sort     reduce
constexpr std::array<double, kCpuLayers> kSecondsPerRecord = {
                             0,       6.04e-7, 6.29e-8,  2.39e-8, 2.62e-7};
constexpr std::array<double, kCpuLayers> kSecondsPerByte = {
                             1.46e-9, 1.22e-9, 4.50e-10, 0,       0};

/// Virtual byte count after scale-down compensation.
double Scaled(const ClusterSpec& spec, uint64_t bytes) {
  return static_cast<double>(bytes) * spec.data_scale;
}
}  // namespace

double CostModel::DiskRead(uint64_t bytes) const {
  if (bytes == 0) return 0;
  return spec_.disk_seek_s +
         Scaled(spec_, bytes) / spec_.disk_bandwidth_bytes_per_s;
}

double CostModel::DiskWrite(uint64_t bytes) const {
  if (bytes == 0) return 0;
  return spec_.disk_seek_s +
         Scaled(spec_, bytes) / spec_.disk_bandwidth_bytes_per_s;
}

double CostModel::NetTransfer(uint64_t bytes) const {
  if (bytes == 0) return 0;
  return spec_.net_latency_s +
         Scaled(spec_, bytes) / spec_.net_bandwidth_bytes_per_s;
}

double CostModel::DfsWrite(uint64_t bytes) const {
  if (bytes == 0) return 0;
  // The write pipeline streams through the replicas, so the extra replicas
  // add network transfers and remote disk writes that overlap imperfectly;
  // model as local write + (r-1) half-overlapped network hops.
  double t = DiskWrite(bytes);
  for (int r = 1; r < spec_.dfs_replication; ++r) {
    t += NetTransfer(bytes) * 0.5;
  }
  return t;
}

double CostModel::DfsRead(uint64_t bytes, bool local) const {
  if (bytes == 0) return 0;
  double t = DiskRead(bytes);
  if (!local) t += NetTransfer(bytes);
  return t;
}

double CostModel::L2Read(uint64_t bytes, bool local) const {
  if (bytes == 0) return 0;
  if (local) return Scaled(spec_, bytes) / spec_.mem_bandwidth_bytes_per_s;
  return NetTransfer(bytes);
}

double CostModel::Checksum(uint64_t bytes) const {
  if (bytes == 0) return 0;
  return Scaled(spec_, bytes) / spec_.checksum_bandwidth_bytes_per_s;
}

double CostModel::Cpu(const CpuWork& work) const {
  double seconds = 0;
  for (int l = 0; l < kCpuLayers; ++l) {
    seconds += static_cast<double>(work.records[l]) * kSecondsPerRecord[l] +
               static_cast<double>(work.bytes[l]) * kSecondsPerByte[l];
  }
  return seconds * spec_.data_scale;
}

void CpuWork::Add(CpuLayer layer, uint64_t n, uint64_t b) {
  const int l = static_cast<int>(layer);
  // A sort of n records costs n·log2 n compares; bit_width(n) is
  // floor(log2 n) + 1, exact in integers, so the count is deterministic.
  records[l] += layer == CpuLayer::kSort
                    ? (n < 2 ? 0 : n * static_cast<uint64_t>(std::bit_width(n)))
                    : n;
  bytes[l] += b;
}

CpuWork& CpuWork::operator+=(const CpuWork& other) {
  for (int l = 0; l < kCpuLayers; ++l) {
    records[l] += other.records[l];
    bytes[l] += other.bytes[l];
  }
  return *this;
}

double CostModel::SpreadOverSlots(double cluster_seconds) const {
  return cluster_seconds / spec_.total_slots();
}

}  // namespace m3r::sim
