// Whole-file reads for scenario and campaign documents and for campaign
// cache entries.
#pragma once

#include <optional>
#include <string>

namespace adacheck::util {

/// The bytes of the file at `path`, or nullopt when it cannot be opened
/// or read.  A regular file is read with one sized allocation straight
/// into the returned string; a file whose size is unknown up front (a
/// pipe, say) is read to EOF.  Callers phrase their own error text.
std::optional<std::string> read_file(const std::string& path);

}  // namespace adacheck::util
