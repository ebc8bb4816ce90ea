// Helpers shared by the serve workloads and the traced pass.
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "workloads.hpp"

namespace utilrisk::perfbench {

WorkDir::WorkDir(std::filesystem::path path) : path_(std::move(path)) {
  std::filesystem::remove_all(path_);
  std::filesystem::create_directories(path_);
}

WorkDir::~WorkDir() {
  std::error_code ignored;
  std::filesystem::remove_all(path_, ignored);
}

std::vector<std::string> serve_args(const std::string& socket,
                                    std::vector<std::string> extra) {
  std::vector<std::string> args = {"serve", "--socket", socket,
                                   "--manifest-dir", ""};
  args.insert(args.end(), extra.begin(), extra.end());
  return args;
}

bool parse_recovery_banner(const std::string& line, std::uint64_t& replayed,
                           std::string& digest) {
  unsigned long long count = 0;
  char hex[17] = {};
  if (std::sscanf(line.c_str(),
                  "[recovered %llu journalled request(s); digest %16[0-9a-f]]",
                  &count, hex) != 2) {
    return false;
  }
  replayed = count;
  digest = hex;
  return true;
}

double summary_count(const std::string& text, const std::string& word) {
  std::istringstream in(text);
  std::string previous;
  std::string token;
  while (in >> token) {
    if (!token.empty() && token.back() == ',') token.pop_back();
    if (token == word) return std::atof(previous.c_str());
    previous = token;
  }
  return 0.0;
}

}  // namespace utilrisk::perfbench
