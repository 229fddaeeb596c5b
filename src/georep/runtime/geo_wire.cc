#include "src/georep/runtime/geo_wire.h"

#include <cassert>

#include "src/net/wire_io.h"

namespace eunomia::geo::rt::wire {

namespace {

using net::wire::io::PayloadReader;
using net::wire::io::PutU32;
using net::wire::io::PutU64;

void PutVts(std::string* out, const VectorTimestamp& vts) {
  PutU32(out, vts.size());
  for (std::uint32_t d = 0; d < vts.size(); ++d) {
    PutU64(out, vts[d]);
  }
}

bool ReadVts(PayloadReader* reader, VectorTimestamp* vts) {
  std::uint32_t len = 0;
  // A width past kMaxDcs fits no VectorTimestamp: a malformed payload.
  if (!reader->U32(&len) || len == 0 || len > kMaxDcs ||
      reader->remaining() < static_cast<std::size_t>(len) * 8) {
    return false;
  }
  *vts = VectorTimestamp(len);
  for (std::uint32_t d = 0; d < len; ++d) {
    std::uint64_t v = 0;
    if (!reader->U64(&v)) return false;
    (*vts)[d] = v;
  }
  return true;
}

}  // namespace

std::string EncodeGeoHello(const GeoHelloMsg& msg) {
  std::string payload;
  PutU32(&payload, msg.protocol_version);
  PutU32(&payload, msg.dc);
  PutU32(&payload, msg.num_dcs);
  PutU32(&payload, msg.partitions);
  PutU32(&payload, msg.link_kind);
  PutU64(&payload, msg.resume_from);
  return payload;
}

bool DecodeGeoHello(std::string_view payload, GeoHelloMsg* msg) {
  PayloadReader reader(payload);
  return reader.U32(&msg->protocol_version) && reader.U32(&msg->dc) &&
         reader.U32(&msg->num_dcs) && reader.U32(&msg->partitions) &&
         reader.U32(&msg->link_kind) && reader.U64(&msg->resume_from) &&
         reader.done();
}

std::string EncodeGeoMetaBatch(DatacenterId origin, const RemoteUpdate* updates,
                               std::size_t count) {
  std::string payload;
  payload.reserve(8 + (count == 0 ? 0
                                  : count * RemoteUpdateWireBytes(
                                                updates[0].vts.size())));
  PutU32(&payload, origin);
  PutU32(&payload, static_cast<std::uint32_t>(count));
  for (std::size_t i = 0; i < count; ++i) {
    const RemoteUpdate& u = updates[i];
    PutU64(&payload, u.uid);
    PutU64(&payload, u.key);
    PutU32(&payload, u.origin);
    PutU32(&payload, u.partition);
    PutVts(&payload, u.vts);
  }
  assert(payload.size() <= net::wire::kMaxPayloadBytes);
  return payload;
}

bool DecodeGeoMetaBatch(std::string_view payload, GeoMetaBatchMsg* msg) {
  PayloadReader reader(payload);
  std::uint32_t count = 0;
  if (!reader.U32(&msg->origin) || !reader.U32(&count)) {
    return false;
  }
  // Each update is at least 28 bytes: a count the payload cannot hold is
  // rejected before any reservation.
  if (static_cast<std::size_t>(count) * 28 > reader.remaining()) {
    return false;
  }
  msg->updates.clear();
  msg->updates.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    RemoteUpdate u;
    if (!reader.U64(&u.uid) || !reader.U64(&u.key) || !reader.U32(&u.origin) ||
        !reader.U32(&u.partition) || !ReadVts(&reader, &u.vts)) {
      return false;
    }
    msg->updates.push_back(std::move(u));
  }
  return reader.done();
}

std::string EncodeGeoFrontier(const GeoFrontierMsg& msg) {
  std::string payload;
  PutU32(&payload, msg.origin);
  PutU64(&payload, msg.frontier);
  return payload;
}

bool DecodeGeoFrontier(std::string_view payload, GeoFrontierMsg* msg) {
  PayloadReader reader(payload);
  return reader.U32(&msg->origin) && reader.U64(&msg->frontier) &&
         reader.done();
}

std::string EncodeGeoPayload(const GeoPayloadMsg& msg) {
  std::string payload;
  payload.reserve(32 + 8 * msg.payload.vts.size() + msg.payload.value.size());
  PutU32(&payload, msg.partition);
  PutU64(&payload, msg.payload.uid);
  PutU64(&payload, msg.payload.key);
  PutU32(&payload, msg.payload.origin);
  PutVts(&payload, msg.payload.vts);
  PutU32(&payload, static_cast<std::uint32_t>(msg.payload.value.size()));
  payload.append(msg.payload.value);
  assert(payload.size() <= net::wire::kMaxPayloadBytes);
  return payload;
}

bool DecodeGeoPayload(std::string_view payload, GeoPayloadMsg* msg) {
  PayloadReader reader(payload);
  std::uint32_t value_len = 0;
  return reader.U32(&msg->partition) && reader.U64(&msg->payload.uid) &&
         reader.U64(&msg->payload.key) && reader.U32(&msg->payload.origin) &&
         ReadVts(&reader, &msg->payload.vts) && reader.U32(&value_len) &&
         reader.Bytes(value_len, &msg->payload.value) && reader.done();
}

std::string EncodeGeoAck(const GeoAckMsg& msg) {
  std::string payload;
  PutU32(&payload, msg.dc);
  PutU64(&payload, msg.applied);
  return payload;
}

bool DecodeGeoAck(std::string_view payload, GeoAckMsg* msg) {
  PayloadReader reader(payload);
  return reader.U32(&msg->dc) && reader.U64(&msg->applied) && reader.done();
}

}  // namespace eunomia::geo::rt::wire
