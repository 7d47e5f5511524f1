//===-- Client.cpp - thinsliced client ------------------------------------===//

#include "service/Client.h"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace tsl;

ServiceClient::~ServiceClient() { close(); }

void ServiceClient::close() {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
}

Status ServiceClient::connect(const std::string &SocketPath) {
  close();
  sockaddr_un Addr{};
  if (SocketPath.empty() || SocketPath.size() >= sizeof(Addr.sun_path))
    return Status(StatusCode::InvalidArgument,
                  "bad socket path '" + SocketPath + "'");
  Fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (Fd < 0)
    return Status(StatusCode::Internal,
                  std::string("socket: ") + strerror(errno));
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, SocketPath.c_str(), SocketPath.size() + 1);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    Status S(StatusCode::NotFound, "connect " + SocketPath + ": " +
                                       strerror(errno));
    close();
    return S;
  }
  return Status::ok();
}

Status ServiceClient::call(const ServiceRequest &Req, ServiceResponse &Resp) {
  if (Fd < 0)
    return Status(StatusCode::InvalidArgument, "not connected");
  Status W = writeFrame(Fd, encodeRequest(Req));
  if (!W.isOk())
    return W;
  FrameRead F = readFrame(Fd);
  if (F.K == FrameRead::Eof)
    return Status(StatusCode::Internal, "daemon closed the connection");
  if (F.K != FrameRead::Ok)
    return Status(StatusCode::Internal, "bad response frame: " + F.Err);
  return decodeResponse(F.Payload, Resp);
}

Status ServiceClient::loadSource(const std::string &Source,
                                 bool ContextSensitive, uint32_t LineOffset,
                                 bool Incremental, ServiceResponse &Resp) {
  ServiceRequest R;
  R.Type = ServiceMsg::LoadSource;
  R.Source = Source;
  R.ContextSensitive = ContextSensitive;
  R.LineOffset = LineOffset;
  R.Incremental = Incremental;
  return call(R, Resp);
}

Status ServiceClient::loadSnapshot(const std::string &Source,
                                   const std::string &Path,
                                   bool ContextSensitive, uint32_t LineOffset,
                                   ServiceResponse &Resp) {
  ServiceRequest R;
  R.Type = ServiceMsg::LoadSnapshot;
  R.Source = Source;
  R.Path = Path;
  R.ContextSensitive = ContextSensitive;
  R.LineOffset = LineOffset;
  return call(R, Resp);
}

Status ServiceClient::slice(const std::string &SessionId, uint32_t Line,
                            SliceMode Mode, ServiceResponse &Resp) {
  ServiceRequest R;
  R.Type = ServiceMsg::Query;
  R.SessionId = SessionId;
  R.Lines = {Line};
  R.Mode = Mode;
  return call(R, Resp);
}

Status ServiceClient::batchSlice(const std::string &SessionId,
                                 const std::vector<uint32_t> &Lines,
                                 SliceMode Mode, ServiceResponse &Resp) {
  ServiceRequest R;
  R.Type = ServiceMsg::Query;
  R.SessionId = SessionId;
  R.Lines = Lines;
  R.Mode = Mode;
  R.Batch = true;
  return call(R, Resp);
}

Status ServiceClient::edit(const std::string &SessionId,
                           const std::string &Source, ServiceResponse &Resp) {
  ServiceRequest R;
  R.Type = ServiceMsg::Edit;
  R.SessionId = SessionId;
  R.Source = Source;
  return call(R, Resp);
}

Status ServiceClient::stats(const std::string &SessionId,
                            ServiceResponse &Resp) {
  ServiceRequest R;
  R.Type = ServiceMsg::Stats;
  R.SessionId = SessionId;
  return call(R, Resp);
}

Status ServiceClient::ping(uint32_t DelayMs, ServiceResponse &Resp) {
  ServiceRequest R;
  R.Type = ServiceMsg::Ping;
  R.DelayMs = DelayMs;
  return call(R, Resp);
}

Status ServiceClient::shutdown(ServiceResponse &Resp) {
  ServiceRequest R;
  R.Type = ServiceMsg::Shutdown;
  return call(R, Resp);
}

Status ServiceClient::sendRaw(const std::vector<uint8_t> &Bytes) {
  if (Fd < 0)
    return Status(StatusCode::InvalidArgument, "not connected");
  std::size_t Sent = 0;
  while (Sent < Bytes.size()) {
    ssize_t R = ::send(Fd, Bytes.data() + Sent, Bytes.size() - Sent,
                       MSG_NOSIGNAL);
    if (R < 0) {
      if (errno == EINTR)
        continue;
      return Status(StatusCode::Internal,
                    std::string("send: ") + strerror(errno));
    }
    Sent += static_cast<std::size_t>(R);
  }
  return Status::ok();
}

FrameRead ServiceClient::readRaw() { return readFrame(Fd); }
