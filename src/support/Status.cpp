//===-- Status.cpp - Structured error model -------------------------------===//

#include "support/Status.h"

using namespace tsl;

const char *tsl::statusCodeName(StatusCode C) {
  switch (C) {
  case StatusCode::Ok:
    return "ok";
  case StatusCode::InvalidArgument:
    return "invalid-argument";
  case StatusCode::NotFound:
    return "not-found";
  case StatusCode::ParseError:
    return "parse-error";
  case StatusCode::SemaError:
    return "sema-error";
  case StatusCode::VerifyError:
    return "verify-error";
  case StatusCode::ResourceExhausted:
    return "resource-exhausted";
  case StatusCode::FaultInjected:
    return "fault-injected";
  case StatusCode::Internal:
    return "internal";
  }
  return "?";
}

std::string Status::str() const {
  if (isOk())
    return "ok";
  std::string Out = statusCodeName(Code);
  if (!Message.empty()) {
    Out += ": ";
    Out += Message;
  }
  return Out;
}
