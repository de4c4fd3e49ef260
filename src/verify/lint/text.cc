#include "verify/lint/text.hh"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>

namespace hmg::verify::lint
{

namespace
{

/**
 * Split `raw` into a code view (comments, string and char literals
 * blanked to spaces) and a comment view (only comment text kept),
 * both preserving line/column geometry. Handles escapes, line and
 * block comments, and raw string literals.
 */
void
splitViews(const std::vector<std::string> &raw,
           std::vector<std::string> &code,
           std::vector<std::string> &comments)
{
    code.reserve(raw.size());
    comments.reserve(raw.size());
    enum class St { Normal, Block, Str, Chr, RawStr };
    St st = St::Normal;
    std::string rawDelim;
    for (const std::string &line : raw) {
        std::string out(line.size(), ' ');
        std::string cmt(line.size(), ' ');
        for (std::size_t i = 0; i < line.size(); ++i) {
            const char c = line[i];
            const char n = i + 1 < line.size() ? line[i + 1] : '\0';
            switch (st) {
              case St::Normal:
                if (c == '/' && n == '/') {
                    for (std::size_t j = i; j < line.size(); ++j)
                        cmt[j] = line[j];
                    i = line.size(); // rest of line is comment
                } else if (c == '/' && n == '*') {
                    st = St::Block;
                    cmt[i] = c;
                    cmt[i + 1] = n;
                    ++i;
                } else if (c == '"' && i > 0 && line[i - 1] == 'R') {
                    // Raw string: R"delim( ... )delim"
                    st = St::RawStr;
                    rawDelim = ")";
                    for (std::size_t j = i + 1;
                         j < line.size() && line[j] != '('; ++j)
                        rawDelim += line[j];
                    rawDelim += '"';
                    out[i - 1] = ' '; // blank the R as well
                } else if (c == '"') {
                    st = St::Str;
                } else if (c == '\'') {
                    st = St::Chr;
                } else {
                    out[i] = c;
                }
                break;
              case St::Block:
                cmt[i] = c;
                if (c == '*' && n == '/') {
                    st = St::Normal;
                    cmt[i + 1] = n;
                    ++i;
                }
                break;
              case St::Str:
                if (c == '\\')
                    ++i;
                else if (c == '"')
                    st = St::Normal;
                break;
              case St::Chr:
                if (c == '\\')
                    ++i;
                else if (c == '\'')
                    st = St::Normal;
                break;
              case St::RawStr:
                if (line.compare(i, rawDelim.size(), rawDelim) == 0) {
                    i += rawDelim.size() - 1;
                    st = St::Normal;
                }
                break;
            }
        }
        code.push_back(std::move(out));
        comments.push_back(std::move(cmt));
    }
}

} // namespace

bool
identChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

bool
hasAnnotation(const std::string &commentLine,
              const std::string &marker)
{
    std::size_t pos = 0;
    while ((pos = commentLine.find(marker, pos)) !=
           std::string::npos) {
        const char before = pos > 0 ? commentLine[pos - 1] : ' ';
        if (before != '`' && before != '\'' && before != '"')
            return true;
        pos += marker.size();
    }
    return false;
}

bool
loadSourceTree(const std::string &root, std::vector<SourceFile> &files,
               std::string &error)
{
    namespace fs = std::filesystem;
    const fs::path srcRoot = fs::path(root) / "src";
    if (!fs::is_directory(srcRoot)) {
        error = "no src/ directory under the analysis root";
        return false;
    }

    std::vector<std::string> paths;
    for (const auto &e : fs::recursive_directory_iterator(srcRoot)) {
        if (!e.is_regular_file())
            continue;
        const std::string ext = e.path().extension().string();
        if (ext == ".cc" || ext == ".hh")
            paths.push_back(e.path().string());
    }
    std::sort(paths.begin(), paths.end());

    const fs::path rootNorm = fs::path(root).lexically_normal();
    for (const std::string &p : paths) {
        SourceFile f;
        const std::string rel = fs::path(p)
                                    .lexically_normal()
                                    .lexically_relative(rootNorm)
                                    .generic_string();
        f.rel = rel.empty() || rel.rfind("..", 0) == 0 ? p : rel;
        std::ifstream in(p);
        std::string line;
        while (std::getline(in, line))
            f.raw.push_back(line);
        splitViews(f.raw, f.code, f.comments);
        files.push_back(std::move(f));
    }
    return true;
}

} // namespace hmg::verify::lint
