#include "sim/cost_model.h"

namespace m3r::sim {

namespace {
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

double CostModel::MeasuredCpu(double host_seconds) const {
  return host_seconds * spec_.data_scale;
}

double CostModel::SpreadOverSlots(double cluster_seconds) const {
  return cluster_seconds / spec_.total_slots();
}

}  // namespace m3r::sim
