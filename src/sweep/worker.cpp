#include "sweep/worker.hpp"

#include "arch/cpu_arch.hpp"

namespace omptune::sweep {

// ---- protocol ---------------------------------------------------------------

namespace protocol {

namespace {

/// Parse a non-negative integer token; nullopt on anything else (garbled
/// bytes must fail parsing, not wrap around or stop early).
std::optional<std::uint64_t> parse_u64(const std::string& token) {
  if (token.empty() ||
      token.find_first_not_of("0123456789") != std::string::npos ||
      token.size() > 19) {
    return std::nullopt;
  }
  return std::stoull(token);
}

std::vector<std::string> split_ws(const std::string& line) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && line[i] == ' ') ++i;
    const std::size_t start = i;
    while (i < line.size() && line[i] != ' ') ++i;
    if (i > start) out.emplace_back(line, start, i - start);
  }
  return out;
}

}  // namespace

std::string format_lease(const std::vector<LeaseItem>& items) {
  std::string out = "lease " + std::to_string(items.size());
  for (const LeaseItem& item : items) {
    out += " " + std::to_string(item.task_index) + ":" +
           std::to_string(item.attempt);
  }
  out += "\n";
  return out;
}

std::string format_exit() { return "exit\n"; }
std::string format_ready() { return "ready\n"; }

std::string format_heartbeat(std::uint64_t total_samples) {
  return "hb " + std::to_string(total_samples) + "\n";
}

std::string format_start(std::size_t task_index) {
  return "start " + std::to_string(task_index) + "\n";
}

std::string format_done(std::size_t task_index, std::uint64_t samples) {
  return "done " + std::to_string(task_index) + " " +
         std::to_string(samples) + "\n";
}

std::string format_bye() { return "bye\n"; }

std::optional<Command> parse_command(const std::string& line,
                                     std::size_t task_count) {
  const std::vector<std::string> tokens = split_ws(line);
  if (tokens.empty()) return std::nullopt;
  if (tokens[0] == "exit") {
    if (tokens.size() != 1) return std::nullopt;
    return Command{Command::Kind::Exit, {}};
  }
  if (tokens[0] != "lease" || tokens.size() < 2) return std::nullopt;
  const std::optional<std::uint64_t> count = parse_u64(tokens[1]);
  if (!count || *count == 0 || tokens.size() != 2 + *count) return std::nullopt;
  Command command{Command::Kind::Lease, {}};
  for (std::size_t i = 2; i < tokens.size(); ++i) {
    const std::size_t colon = tokens[i].find(':');
    if (colon == std::string::npos) return std::nullopt;
    const std::optional<std::uint64_t> index =
        parse_u64(tokens[i].substr(0, colon));
    const std::optional<std::uint64_t> attempt =
        parse_u64(tokens[i].substr(colon + 1));
    if (!index || !attempt || *index >= task_count) return std::nullopt;
    command.items.push_back(
        LeaseItem{static_cast<std::size_t>(*index), static_cast<int>(*attempt)});
  }
  return command;
}

std::optional<WorkerMessage> parse_worker_message(const std::string& line,
                                                  std::size_t task_count) {
  const std::vector<std::string> tokens = split_ws(line);
  if (tokens.empty()) return std::nullopt;
  WorkerMessage msg;
  if (tokens[0] == "ready" && tokens.size() == 1) {
    msg.kind = WorkerMessage::Kind::Ready;
    return msg;
  }
  if (tokens[0] == "bye" && tokens.size() == 1) {
    msg.kind = WorkerMessage::Kind::Bye;
    return msg;
  }
  if (tokens[0] == "hb" && tokens.size() == 2) {
    const std::optional<std::uint64_t> count = parse_u64(tokens[1]);
    if (!count) return std::nullopt;
    msg.kind = WorkerMessage::Kind::Heartbeat;
    msg.count = *count;
    return msg;
  }
  if (tokens[0] == "start" && tokens.size() == 2) {
    const std::optional<std::uint64_t> index = parse_u64(tokens[1]);
    if (!index || *index >= task_count) return std::nullopt;
    msg.kind = WorkerMessage::Kind::Start;
    msg.task_index = static_cast<std::size_t>(*index);
    return msg;
  }
  if (tokens[0] == "done" && tokens.size() == 3) {
    const std::optional<std::uint64_t> index = parse_u64(tokens[1]);
    const std::optional<std::uint64_t> samples = parse_u64(tokens[2]);
    if (!index || !samples || *index >= task_count) return std::nullopt;
    msg.kind = WorkerMessage::Kind::Done;
    msg.task_index = static_cast<std::size_t>(*index);
    msg.count = *samples;
    return msg;
  }
  return std::nullopt;
}

}  // namespace protocol

// ---- plan flattening --------------------------------------------------------

std::vector<SettingTask> flatten_plan(const StudyPlan& plan) {
  std::vector<SettingTask> tasks;
  for (const ArchPlan& arch_plan : plan.arch_plans) {
    const arch::CpuArch& cpu = arch::architecture(arch_plan.arch);
    for (std::size_t i = 0; i < arch_plan.settings.size(); ++i) {
      SettingTask task;
      task.arch = arch_plan.arch;
      task.setting = arch_plan.settings[i];
      task.config_count = arch_plan.configs_per_setting[i];
      task.key = setting_key(cpu.name, task.setting);
      tasks.push_back(std::move(task));
    }
  }
  return tasks;
}

}  // namespace omptune::sweep
