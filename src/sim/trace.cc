#include "sim/trace.h"

#include <sstream>

namespace slumber::sim {

std::string trace_kind_name(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kWake: return "wake";
    case TraceEventKind::kDeliver: return "deliver";
    case TraceEventKind::kDropSleep: return "drop-sleeping";
    case TraceEventKind::kDropFault: return "drop-fault";
    case TraceEventKind::kDecide: return "decide";
    case TraceEventKind::kTerminate: return "terminate";
    case TraceEventKind::kCrash: return "crash";
  }
  return "unknown";
}

namespace {

std::string msg_kind_name(MsgKind kind) {
  switch (kind) {
    case MsgKind::kHello: return "Hello";
    case MsgKind::kStatus: return "Status";
    case MsgKind::kRank: return "Rank";
    case MsgKind::kInMis: return "InMis";
    case MsgKind::kProb: return "Prob";
    case MsgKind::kMark: return "Mark";
    case MsgKind::kColor: return "Color";
    case MsgKind::kBeep: return "Beep";
    case MsgKind::kCustom: return "Custom";
  }
  return "?";
}

}  // namespace

std::string format_event(const TraceEvent& event) {
  std::ostringstream out;
  out << "round " << event.round << ": " << trace_kind_name(event.kind)
      << " node " << event.node;
  switch (event.kind) {
    case TraceEventKind::kDeliver:
    case TraceEventKind::kDropSleep:
    case TraceEventKind::kDropFault:
      out << " -> " << event.peer << " kind=" << msg_kind_name(event.msg_kind);
      break;
    case TraceEventKind::kDecide:
      out << " value=" << event.value;
      break;
    default:
      break;
  }
  return out.str();
}

std::uint64_t RingTrace::count(TraceEventKind kind) const {
  std::uint64_t n = 0;
  for (const TraceEvent& event : events_) {
    if (event.kind == kind) ++n;
  }
  return n;
}

std::string RingTrace::render() const {
  std::ostringstream out;
  if (total_ > events_.size()) {
    out << "... (" << total_ - events_.size() << " earlier events elided)\n";
  }
  for (const TraceEvent& event : events_) {
    out << format_event(event) << '\n';
  }
  return out.str();
}

}  // namespace slumber::sim
