//===-- Client.h - thinsliced client --------------------------- -*- C++ -*-==//
//
// Part of ThinSlicer, a reproduction of "Thin Slicing" (PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Blocking client for the thinsliced daemon: connects to the Unix
/// socket, frames requests, decodes responses. Used by `thinslice
/// --connect` and by the service tests (which also exercise the wire
/// through sendRaw, bypassing the codec to inject malformed frames).
///
//===----------------------------------------------------------------------===//

#ifndef THINSLICER_SERVICE_CLIENT_H
#define THINSLICER_SERVICE_CLIENT_H

#include "service/Protocol.h"

#include <string>
#include <vector>

namespace tsl {

/// One connection to a thinsliced daemon. Not thread-safe; use one
/// client per thread (the daemon serves them concurrently).
class ServiceClient {
public:
  ServiceClient() = default;
  ~ServiceClient();

  ServiceClient(const ServiceClient &) = delete;
  ServiceClient &operator=(const ServiceClient &) = delete;

  Status connect(const std::string &SocketPath);
  void close();
  bool connected() const { return Fd >= 0; }

  /// Round-trips one request. A transport failure (daemon gone,
  /// truncated response) comes back as a non-Ok Status; protocol-level
  /// failures arrive as the response's own code.
  Status call(const ServiceRequest &Req, ServiceResponse &Resp);

  //===------------------------------------------------------------------===//
  // Convenience wrappers (all call())
  //===------------------------------------------------------------------===//

  Status loadSource(const std::string &Source, bool ContextSensitive,
                    uint32_t LineOffset, bool Incremental,
                    ServiceResponse &Resp);
  Status loadSnapshot(const std::string &Source, const std::string &Path,
                      bool ContextSensitive, uint32_t LineOffset,
                      ServiceResponse &Resp);
  /// Backward Query shorthands; any other kind goes through call()
  /// with a ServiceMsg::Query request.
  Status slice(const std::string &SessionId, uint32_t Line, SliceMode Mode,
               ServiceResponse &Resp);
  Status batchSlice(const std::string &SessionId,
                    const std::vector<uint32_t> &Lines, SliceMode Mode,
                    ServiceResponse &Resp);
  Status edit(const std::string &SessionId, const std::string &Source,
              ServiceResponse &Resp);
  Status stats(const std::string &SessionId, ServiceResponse &Resp);
  Status ping(uint32_t DelayMs, ServiceResponse &Resp);
  Status shutdown(ServiceResponse &Resp);

  //===------------------------------------------------------------------===//
  // Wire-level escape hatches (protocol tests)
  //===------------------------------------------------------------------===//

  /// Writes \p Bytes verbatim — no framing, no validation. The tests'
  /// way of sending malformed headers and truncated frames.
  Status sendRaw(const std::vector<uint8_t> &Bytes);

  /// Reads one framed response off the socket.
  FrameRead readRaw();

  int fd() const { return Fd; }

private:
  int Fd = -1;
};

} // namespace tsl

#endif // THINSLICER_SERVICE_CLIENT_H
