// Clocks, percentiles, /proc probes and the span recorder.

#include <fcntl.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "e2e.h"

namespace emogi::e2e {
namespace {

std::int64_t ClockNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
      out += buffer;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::stringstream text;
  text << in.rdbuf();
  *out = text.str();
  return true;
}

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t ThreadCpuNs() { return ClockNs(CLOCK_THREAD_CPUTIME_ID); }
std::int64_t ProcessCpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(samples.size()));
  const std::size_t index = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(samples.size())));
  return samples[index - 1];
}

double Median(std::vector<double> samples) {
  return QuartilesOf(std::move(samples)).median;
}

Quartiles QuartilesOf(std::vector<double> values) {
  Quartiles q;
  if (values.empty()) return q;
  std::sort(values.begin(), values.end());
  const long n = static_cast<long>(values.size());
  if (n == 1) {
    q.q1 = q.median = q.q3 = values[0];
    return q;
  }
  const long m = n + 1;
  double out[3];
  for (long i = 1; i <= 3; ++i) {
    long j = std::clamp(i * m / 4, 1L, n - 1);
    const long delta = i * m - j * 4;
    out[i - 1] = (values[j - 1] * static_cast<double>(4 - delta) +
                  values[j] * static_cast<double>(delta)) /
                 4.0;
  }
  q.q1 = out[0];
  q.median = out[1];
  q.q3 = out[2];
  return q;
}

bool SampleProc(int pid, ProcSample* out) {
  const std::string base =
      pid == 0 ? std::string("/proc/self") : "/proc/" + std::to_string(pid);
  std::ifstream stat(base + "/stat");
  std::string line;
  if (!std::getline(stat, line)) return false;
  const std::size_t close = line.rfind(')');
  if (close == std::string::npos) return false;
  std::istringstream fields(line.substr(close + 1));
  std::string token;
  double utime = 0;
  double stime = 0;
  // Field 3 (state) is the first token after the command name; utime
  // and stime are fields 14 and 15.
  for (int field = 3; field <= 15 && (fields >> token); ++field) {
    if (field == 14) utime = std::atof(token.c_str());
    if (field == 15) stime = std::atof(token.c_str());
  }
  const double ticks = static_cast<double>(sysconf(_SC_CLK_TCK));
  out->cpu_ms = (utime + stime) * 1000.0 / ticks;
  std::ifstream status(base + "/status");
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) out->rss_kb = std::atof(line.c_str() + 6);
    if (line.rfind("VmHWM:", 0) == 0) {
      out->peak_rss_kb = std::atof(line.c_str() + 6);
    }
  }
  return true;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

int OnlineCpus() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

void RemoveTree(const std::string& path) {
  std::error_code ignored;
  std::filesystem::remove_all(path, ignored);
}

std::uint64_t Fnv1a64(const void* data, std::size_t size,
                      std::uint64_t hash) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ull;
  }
  return hash;
}

int Spawn(const std::vector<std::string>& argv,
          const std::vector<std::string>& env, const std::string& log_path,
          std::string* error) {
  // Everything the child needs is built before fork: only
  // async-signal-safe calls happen between fork and exec.
  std::vector<std::string> env_strings;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "EMOGI_", 6) != 0) env_strings.emplace_back(*e);
  }
  env_strings.insert(env_strings.end(), env.begin(), env.end());
  std::vector<char*> envp;
  for (std::string& e : env_strings) envp.push_back(e.data());
  envp.push_back(nullptr);
  std::vector<std::string> args = argv;
  std::vector<char*> argp;
  for (std::string& a : args) argp.push_back(a.data());
  argp.push_back(nullptr);

  const int log_fd =
      open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (log_fd < 0) {
    *error = log_path + ": " + std::strerror(errno);
    return -1;
  }
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    close(log_fd);
    return -1;
  }
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    dup2(log_fd, STDOUT_FILENO);
    dup2(log_fd, STDERR_FILENO);
    execve(argp[0], argp.data(), envp.data());
    _exit(127);
  }
  close(log_fd);
  return pid;
}

int Reap(int pid, int timeout_ms) {
  const std::int64_t deadline =
      NowNs() + static_cast<std::int64_t>(timeout_ms) * 1000000;
  int status = 0;
  for (;;) {
    const pid_t done = waitpid(pid, &status, WNOHANG);
    if (done == pid) break;
    if (done < 0 && errno != EINTR) return -1;
    if (NowNs() > deadline) {
      kill(pid, SIGKILL);
      while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
      }
      return -1;
    }
    usleep(2000);
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::uint64_t Tracer::Span(const std::string& name, std::int64_t start_ns,
                           std::int64_t end_ns, std::uint64_t parent,
                           std::uint64_t request_id, int lane_tid,
                           std::map<std::string, double> attrs) {
  if (!enabled_) return 0;
  const std::uint64_t id = spans_.size() + 1;
  spans_.push_back(Record{name, start_ns, end_ns, id, parent, request_id,
                          lane_tid, std::move(attrs)});
  return id;
}

bool Tracer::Write(const std::string& path, std::string* error) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    *error = path + ": " + std::strerror(errno);
    return false;
  }
  std::int64_t origin = 0;
  for (const Record& span : spans_) {
    if (origin == 0 || span.start_ns < origin) origin = span.start_ns;
  }
  std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", file);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& span = spans_[i];
    std::string args = "\"span\": " + std::to_string(span.id) +
                       ", \"parent\": " + std::to_string(span.parent) +
                       ", \"request\": " + std::to_string(span.request);
    for (const auto& [key, value] : span.attrs) {
      args += ", \"" + JsonEscape(key) + "\": " + JsonNumber(value);
    }
    std::fprintf(file,
                 "{\"name\": \"%s\", \"cat\": \"e2e\", \"ph\": \"X\", "
                 "\"ts\": %s, \"dur\": %s, \"pid\": 1, \"tid\": %d, "
                 "\"args\": {%s}}%s\n",
                 JsonEscape(span.name).c_str(),
                 JsonNumber(static_cast<double>(span.start_ns - origin) / 1e3)
                     .c_str(),
                 JsonNumber(static_cast<double>(span.end_ns - span.start_ns) /
                            1e3)
                     .c_str(),
                 span.tid, args.c_str(), i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]}\n", file);
  if (std::fclose(file) != 0) {
    *error = path + ": write failed";
    return false;
  }
  return true;
}

}  // namespace emogi::e2e
