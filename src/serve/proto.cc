#include "serve/proto.hh"

#include <cstdlib>
#include <sstream>

#include "common/json.hh"

namespace simalpha {
namespace serve {

namespace {

/**
 * Parse a flat object of string and unsigned-integer members — the
 * whole grammar of requests and control lines — into the two maps.
 * Any other value kind (a nested object, a bool, a signed or
 * fractional number) rejects the line, so the wire protocol stays this
 * narrow even though the journal's lines carry richer kinds.
 */
bool
parseFlat(const std::string &line,
          std::map<std::string, std::string> *strings,
          std::map<std::string, std::uint64_t> *numbers)
{
    json::Value root;
    if (!json::parse(line, &root, nullptr))
        return false;
    for (json::Member &m : root.members) {
        if (m.value.kind == json::Value::Kind::String)
            (*strings)[m.key] = std::move(m.value.str);
        else if (m.value.kind == json::Value::Kind::UInt)
            (*numbers)[m.key] = m.value.uint;
        else
            return false;
    }
    return true;
}

} // namespace

bool
parseTcpAddress(const std::string &address, std::string *host,
                std::uint16_t *port, std::string *error)
{
    auto fail = [&](const std::string &why) {
        if (error)
            *error = "bad TCP address '" + address + "': " + why;
        return false;
    };
    if (address.rfind("tcp:", 0) != 0)
        return fail("expected tcp:PORT or tcp:HOST:PORT");
    std::string rest = address.substr(4);
    std::string hostText = "127.0.0.1";
    std::string portText = rest;
    std::size_t colon = rest.rfind(':');
    if (colon != std::string::npos) {
        hostText = rest.substr(0, colon);
        portText = rest.substr(colon + 1);
        if (hostText.empty())
            return fail("empty host");
    }
    if (portText.empty() ||
        portText.find_first_not_of("0123456789") != std::string::npos)
        return fail("port '" + portText + "' is not a number");
    unsigned long value = std::strtoul(portText.c_str(), nullptr, 10);
    if (value > 65535)
        return fail("port " + portText + " is out of range (0-65535)");
    *host = hostText;
    *port = std::uint16_t(value);
    return true;
}

bool
parseRequest(const std::string &line, Request *out, std::string *error)
{
    if (line.size() > kMaxLineBytes) {
        if (error)
            *error = "request line exceeds the per-line byte cap";
        return false;
    }
    std::map<std::string, std::string> strings;
    std::map<std::string, std::uint64_t> numbers;
    if (!parseFlat(line, &strings, &numbers)) {
        if (error)
            *error = "request is not a flat JSON object of "
                     "string/integer fields";
        return false;
    }
    if (!strings.count("op")) {
        if (error)
            *error = "request has no \"op\" field";
        return false;
    }
    Request r;
    r.op = strings["op"];
    if (strings.count("campaign"))
        r.campaign = strings["campaign"];
    if (numbers.count("max_insts"))
        r.maxInsts = numbers["max_insts"];
    if (strings.count("sample"))
        r.sample = strings["sample"];
    if (strings.count("client"))
        r.client = strings["client"];
    if (strings.count("mode"))
        r.mode = strings["mode"];
    if (numbers.count("entries"))
        r.entries = numbers["entries"];
    if (numbers.count("newer_than"))
        r.newerThan = numbers["newer_than"];
    *out = std::move(r);
    return true;
}

bool
isServeLine(const std::string &line)
{
    return line.rfind("{\"serve\":1,", 0) == 0 ||
           line == "{\"serve\":1}";
}

bool
parseServeLine(const std::string &line,
               std::map<std::string, std::string> *strings,
               std::map<std::string, std::uint64_t> *numbers)
{
    return parseFlat(line, strings, numbers);
}

std::string
helloLine(const std::string &storePath, std::size_t maxPending,
          std::size_t maxClients)
{
    std::ostringstream os;
    os << "{\"serve\":1,\"event\":\"hello\",\"version\":"
       << kProtoVersion << ",\"store\":\"" << json::escape(storePath)
       << "\",\"max_pending\":" << maxPending
       << ",\"max_clients\":" << maxClients << "}";
    return os.str();
}

std::string
errorLine(const std::string &code, const std::string &message)
{
    std::ostringstream os;
    os << "{\"serve\":1,\"event\":\"error\",\"code\":\""
       << json::escape(code) << "\",\"message\":\""
       << json::escape(message) << "\"}";
    return os.str();
}

std::string
acceptedLine(const std::string &campaign, const std::string &jobId,
             std::size_t cells, std::size_t pendingAhead)
{
    std::ostringstream os;
    os << "{\"serve\":1,\"event\":\"accepted\",\"campaign\":\""
       << json::escape(campaign) << "\",\"job\":\"" << json::escape(jobId)
       << "\",\"cells\":" << cells
       << ",\"pending_ahead\":" << pendingAhead << "}";
    return os.str();
}

std::string
doneLine(const std::string &campaign, const std::string &jobId,
         std::size_t cells, std::size_t okCells,
         std::size_t failedCells, const std::string &outcome)
{
    std::ostringstream os;
    os << "{\"serve\":1,\"event\":\"done\",\"campaign\":\""
       << json::escape(campaign) << "\",\"job\":\"" << json::escape(jobId)
       << "\",\"cells\":" << cells << ",\"ok\":" << okCells
       << ",\"failed\":" << failedCells << ",\"outcome\":\""
       << json::escape(outcome) << "\"}";
    return os.str();
}

std::string
statusLine(const std::string &campaign, const std::string &jobId,
           const std::string &state, std::size_t settled,
           std::size_t cells)
{
    std::ostringstream os;
    os << "{\"serve\":1,\"event\":\"status\",\"campaign\":\""
       << json::escape(campaign) << "\",\"job\":\"" << json::escape(jobId)
       << "\",\"state\":\"" << json::escape(state)
       << "\",\"settled\":" << settled << ",\"cells\":" << cells
       << "}";
    return os.str();
}

std::string
healthLine(const HealthSnapshot &s)
{
    std::ostringstream os;
    os << "{\"serve\":1,\"event\":\"health\",\"status\":\""
       << (s.draining ? "draining" : "ok")
       << "\",\"store\":\"" << (s.storeDegraded ? "degraded" : "ok")
       << "\",\"clients\":" << s.clients
       << ",\"jobs_pending\":" << s.jobsPending
       << ",\"jobs_running\":" << (s.jobRunning ? 1 : 0)
       << ",\"jobs_done\":" << s.jobsDone
       << ",\"cells_computed\":" << s.cellsComputed
       << ",\"cells_served\":" << s.cellsServed
       << ",\"busy_rejections\":" << s.busyRejections
       << ",\"pid\":" << s.pid
       << ",\"uptime_s\":" << s.uptimeSeconds
       << ",\"store_path\":\"" << json::escape(s.storePath) << "\"}";
    return os.str();
}

std::string
capabilitiesLine(const Capabilities &caps)
{
    std::ostringstream os;
    os << "{\"serve\":1,\"event\":\"capabilities\",\"version\":"
       << kProtoVersion
       << ",\"ops\":\"hello,submit,status,results,cancel,health,"
          "capabilities,sync,shutdown\""
       << ",\"store_path\":\"" << json::escape(caps.storePath)
       << "\",\"isolate\":\"" << json::escape(caps.isolate)
       << "\",\"max_line_bytes\":" << kMaxLineBytes
       << ",\"max_sync_line_bytes\":" << kMaxSyncLineBytes
       << ",\"max_pending\":" << caps.maxPending
       << ",\"max_clients\":" << caps.maxClients
       << ",\"max_cells\":" << caps.maxCellsPerCampaign
       << ",\"max_client_cells\":" << caps.maxClientCells << "}";
    return os.str();
}

std::string
syncedLine(const std::string &direction, std::uint64_t entries)
{
    std::ostringstream os;
    os << "{\"serve\":1,\"event\":\"synced\",\"direction\":\""
       << json::escape(direction) << "\",\"entries\":" << entries
       << "}";
    return os.str();
}

std::string
drainingLine()
{
    return "{\"serve\":1,\"event\":\"draining\"}";
}

std::string
cancellingLine(const std::string &campaign, const std::string &jobId)
{
    std::ostringstream os;
    os << "{\"serve\":1,\"event\":\"cancelling\",\"campaign\":\""
       << json::escape(campaign) << "\",\"job\":\"" << json::escape(jobId)
       << "\"}";
    return os.str();
}

} // namespace serve
} // namespace simalpha
