#pragma once
// The fleet's failure model is the DES Server's kill source
// (serve/failure.hpp); these aliases keep the ios::fleet spellings.

#include "serve/failure.hpp"

namespace ios::fleet {
using KillEvent = serve::KillEvent;              ///< one scripted kill
using FailureSpec = serve::FailureSpec;          ///< the failure model
using FailureInjector = serve::FailureInjector;  ///< walks a FailureSpec
}  // namespace ios::fleet
