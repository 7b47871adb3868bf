// Gathers the benches' machine-readable output into one results file, in two
// steps that run as separate ctest legs:
//
//   mig_bench_collect <rows-file> <bench-binary>
//   mig_bench_collect --merge <out.json> <rows-file>...
//
// The first runs one bench binary, scrapes its stdout for `BENCH_JSON {...}`
// lines (see bench/bench_common.h), sanity-checks that each payload is one
// flat JSON object with a "bench" key, and writes those lines unchanged to
// <rows-file>. It exits 0 iff the bench exited 0 and printed at least one
// row and no malformed one; otherwise it leaves no <rows-file>. The bench's
// stderr passes through, so a failed check names its reason in the log.
//
// --merge reads the rows files back through the same checks and writes them,
// in argument order, to <out.json> as
//
//   { "benches": [ { "binary": "ablate_delta", "rows": [ {...}, ... ] } ] }
//
// where "binary" is a rows file's name up to its extension. Payloads are
// spliced through verbatim — the benches emit integral nanoseconds only, so
// the aggregate is byte-stable across runs. It exits 0 iff every rows file
// holds at least one row and no malformed one; otherwise it leaves no
// <out.json>, so no gate reads an aggregate with a bench missing.
#include <sys/wait.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

namespace {

struct BenchRun {
  std::string binary;  // basename of the executable
  std::vector<std::string> rows;
};

std::string basename_of(const std::string& path) {
  size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

// One flat JSON object: brace-balanced with quote awareness, no nesting
// needed beyond what the benches emit. Guards against a torn line, not
// against adversarial input.
bool looks_like_row(const std::string& s) {
  if (s.size() < 2 || s.front() != '{' || s.back() != '}') return false;
  if (s.find("\"bench\":") == std::string::npos) return false;
  int depth = 0;
  bool in_str = false;
  for (size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    if (in_str) {
      if (c == '\\') ++i;
      else if (c == '"') in_str = false;
    } else if (c == '"') {
      in_str = true;
    } else if (c == '{') {
      ++depth;
    } else if (c == '}') {
      if (--depth == 0 && i + 1 != s.size()) return false;
    }
  }
  return depth == 0 && !in_str;
}

const std::string kPrefix = "BENCH_JSON ";

// Collects the BENCH_JSON payloads that `in` carries. Returns false on a
// malformed payload or zero rows.
bool scrape(FILE* in, BenchRun* out) {
  std::string line;
  bool ok = true;
  char buf[4096];
  while (std::fgets(buf, sizeof(buf), in)) {
    line += buf;
    if (line.empty() || line.back() != '\n') continue;  // torn long line
    line.pop_back();
    if (line.rfind(kPrefix, 0) == 0) {
      std::string row = line.substr(kPrefix.size());
      if (!looks_like_row(row)) {
        std::fprintf(stderr, "%s: malformed row: %s\n", out->binary.c_str(),
                     row.c_str());
        ok = false;
      } else {
        out->rows.push_back(std::move(row));
      }
    }
    line.clear();
  }
  if (out->rows.empty()) {
    std::fprintf(stderr, "%s: no BENCH_JSON rows\n", out->binary.c_str());
    return false;
  }
  return ok;
}

// Runs `path` and collects its rows. Returns false on spawn failure, nonzero
// exit, or what scrape() rejects.
bool run_bench(const std::string& path, BenchRun* out) {
  out->binary = basename_of(path);
  FILE* pipe = popen(path.c_str(), "r");
  if (!pipe) {
    std::fprintf(stderr, "%s: cannot spawn\n", path.c_str());
    return false;
  }
  bool ok = scrape(pipe, out);
  int rc = pclose(pipe);
  if (rc != 0) {
    std::fprintf(stderr, "%s: exit status %d\n", out->binary.c_str(),
                 WIFEXITED(rc) ? WEXITSTATUS(rc) : rc);
    return false;
  }
  return ok;
}

// Reads back the rows a bench leg wrote to `path`.
bool read_rows(const std::string& path, BenchRun* out) {
  std::string name = basename_of(path);
  out->binary = name.substr(0, name.find_last_of('.'));
  FILE* in = std::fopen(path.c_str(), "r");
  if (!in) {
    std::fprintf(stderr, "%s: cannot read %s\n", out->binary.c_str(),
                 path.c_str());
    return false;
  }
  bool ok = scrape(in, out);
  std::fclose(in);
  return ok;
}

// Writes `text` to `path`; on failure leaves no file there.
bool write_file(const char* path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (out << text && out.flush()) return true;
  std::fprintf(stderr, "cannot write %s\n", path);
  std::remove(path);
  return false;
}

int collect_one(const char* rows_path, const char* bench) {
  std::remove(rows_path);
  BenchRun run;
  if (!run_bench(bench, &run)) return 1;
  std::string text;
  for (const std::string& row : run.rows) text += kPrefix + row + '\n';
  if (!write_file(rows_path, text)) return 2;
  std::printf("%s: %zu row(s) -> %s\n", run.binary.c_str(), run.rows.size(),
              rows_path);
  return 0;
}

int merge(const char* out_path, char** rows_paths, int n) {
  std::remove(out_path);
  std::vector<BenchRun> runs(n);
  bool all_ok = true;
  for (int i = 0; i < n; ++i)
    if (!read_rows(rows_paths[i], &runs[i])) all_ok = false;
  if (!all_ok) return 1;

  std::string text = "{\n  \"benches\": [";
  for (size_t b = 0; b < runs.size(); ++b) {
    text += std::string(b ? ",\n" : "\n") + "    {\n      \"binary\": \"" +
            runs[b].binary + "\",\n      \"rows\": [";
    for (size_t r = 0; r < runs[b].rows.size(); ++r)
      text += (r ? ",\n" : "\n") + std::string("        ") + runs[b].rows[r];
    text += "\n      ]\n    }";
  }
  text += "\n  ]\n}\n";
  if (!write_file(out_path, text)) return 2;

  size_t total = 0;
  for (const BenchRun& run : runs) total += run.rows.size();
  std::printf("%zu bench(es), %zu row(s) -> %s\n", runs.size(), total,
              out_path);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 4 && std::string(argv[1]) == "--merge")
    return merge(argv[2], argv + 3, argc - 3);
  if (argc == 3 && std::string(argv[1]) != "--merge")
    return collect_one(argv[1], argv[2]);
  std::fprintf(stderr,
               "usage: %s <rows-file> <bench-binary>\n"
               "       %s --merge <out.json> <rows-file>...\n",
               argv[0], argv[0]);
  return 2;
}
