#include "net/protocol.h"

#include <stdexcept>

#include "api/serialize.h"

namespace bagsched::net {

std::string client_id_text(const util::Json& id) {
  if (id.is_string()) {
    if (id.as_string().empty()) {
      throw std::runtime_error("id must not be empty");
    }
    return id.as_string();
  }
  if (id.is_number()) {
    // as_int rejects non-integral and out-of-range numbers loudly.
    return std::to_string(id.as_int());
  }
  throw std::runtime_error("id must be a string or an integer");
}

api::ProgressKind progress_kind_from_string(const std::string& name) {
  for (const api::ProgressKind kind :
       {api::ProgressKind::Queued, api::ProgressKind::Started,
        api::ProgressKind::Phase, api::ProgressKind::Incumbent,
        api::ProgressKind::Finished}) {
    if (name == api::to_string(kind)) return kind;
  }
  throw std::runtime_error("unknown progress event \"" + name + "\"");
}

std::string event_frame(const std::string& id, const api::ProgressEvent& event,
                        bool include_schedule, bool degraded) {
  util::Json frame = util::Json::object();
  frame.set("type", "event");
  frame.set("id", id);
  frame.set("event", api::to_string(event.kind));
  if (!event.solver.empty()) frame.set("solver", event.solver);
  if (event.kind == api::ProgressKind::Phase) frame.set("phase", event.phase);
  if (event.kind == api::ProgressKind::Incumbent) {
    frame.set("incumbent_makespan", event.incumbent_makespan);
  }
  frame.set("elapsed_seconds", event.elapsed_seconds);
  if (degraded) frame.set("degraded", true);
  if (event.kind == api::ProgressKind::Finished && event.result != nullptr) {
    frame.set("result", api::to_json(*event.result, include_schedule));
  }
  return frame.dump();
}

std::string error_frame(const std::string& code, const std::string& message,
                        const std::string* id) {
  util::Json frame = util::Json::object();
  frame.set("type", "error");
  if (id != nullptr) frame.set("id", *id);
  frame.set("code", code);
  frame.set("message", message);
  return frame.dump();
}

std::string ok_frame(const std::string& op, const std::string& id,
                     std::uint64_t session) {
  util::Json frame = util::Json::object();
  frame.set("type", "ok");
  frame.set("op", op);
  frame.set("id", id);
  frame.set("proto_version", static_cast<long long>(kProtoVersion));
  if (session != 0) frame.set("session", session);
  return frame.dump();
}

std::string session_ok_frame(const std::string& op, const std::string& id,
                             std::uint64_t session, std::uint64_t epoch,
                             std::uint64_t revision,
                             const std::string& digest) {
  util::Json frame = util::Json::object();
  frame.set("type", "ok");
  frame.set("op", op);
  frame.set("id", id);
  frame.set("proto_version", static_cast<long long>(kProtoVersion));
  frame.set("session", session);
  frame.set("epoch", std::to_string(epoch));
  frame.set("revision", revision);
  if (!digest.empty()) frame.set("digest", digest);
  return frame.dump();
}

std::string pong_frame() {
  util::Json frame = util::Json::object();
  frame.set("type", "pong");
  return frame.dump();
}

std::string hello_frame() {
  util::Json frame = util::Json::object();
  frame.set("type", "hello");
  frame.set("proto_version", static_cast<long long>(kProtoVersion));
  frame.set("server", "bagsched");
  return frame.dump();
}

}  // namespace bagsched::net
