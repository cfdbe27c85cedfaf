#include "x10rt/channel.h"

namespace m3r::x10rt {

Channel::Wire Channel::Finish() {
  Wire w;
  w.objects = out_.objects_written();
  w.objects_deduped = out_.objects_deduped();
  w.bytes_saved = out_.bytes_saved();
  w.bytes = out_.TakeBuffer();
  return w;
}

Result<Channel::Wire> Channel::Finish(FaultInjector* fault,
                                      const std::string& key) {
  Wire w = Finish();
  if (fault != nullptr) {
    M3R_RETURN_NOT_OK(fault->Check("channel.send", key));
  }
  return w;
}

Result<Channel::Wire> Channel::Finish(const IntegrityContext* integrity,
                                      FaultInjector* fault,
                                      const std::string& key) {
  M3R_ASSIGN_OR_RETURN(Wire w, Finish(fault, key));
  w.crc = StampCrc(integrity, w.bytes);
  return w;
}

std::vector<serialize::WritablePtr> Channel::Decode(const std::string& bytes) {
  serialize::DedupInputStream in{std::string_view(bytes)};
  std::vector<serialize::WritablePtr> out;
  while (!in.AtEnd()) {
    out.push_back(in.ReadObject());
  }
  return out;
}

Result<std::vector<serialize::WritablePtr>> Channel::Decode(
    const std::string& bytes, FaultInjector* fault, const std::string& key) {
  if (fault != nullptr) {
    M3R_RETURN_NOT_OK(fault->Check("channel.decode", key));
  }
  return Decode(bytes);
}

Result<std::vector<serialize::WritablePtr>> Channel::Decode(
    const std::string& bytes, uint32_t crc, const IntegrityContext* integrity,
    FaultInjector* fault, const std::string& key) {
  if (fault != nullptr) {
    M3R_RETURN_NOT_OK(fault->Check("channel.decode", key));
  }
  std::string scratch;
  const std::string* served = &bytes;
  M3R_RETURN_NOT_OK(ReceiveChecked(integrity, kCorruptChannelFrame, key, crc,
                                   bytes, &scratch, &served));
  return Decode(*served);
}

}  // namespace m3r::x10rt
