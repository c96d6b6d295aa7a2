/**
 * @file
 * Contract of the Unix-socket line transport under src/common/socket:
 * listen/connect/accept over a filesystem path, full-line framing in
 * both blocking and non-blocking reads, the 1 MiB line guard going
 * sticky on overflow, and EOF detection — the substrate the daemon
 * protocol (docs/DAEMON.md) rides on.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <thread>

#include <sys/socket.h>
#include <unistd.h>

#include "common/error.h"
#include "common/fs.h"
#include "common/socket.h"

namespace lsqca::net {
namespace {

std::string
scratchDir(const std::string &tag)
{
    const auto *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    const std::string dir = ::testing::TempDir() + "lsqca_socket_" +
                            info->name() + "_" + tag;
    std::filesystem::remove_all(dir);
    fsutil::makeDirs(dir);
    return dir;
}

/** Listener + connected client pair over a real socket file. */
struct Pair
{
    int listenFd = -1;
    int client = -1;
    int server = -1;

    explicit Pair(const std::string &path)
    {
        listenFd = listenUnix(path);
        client = connectUnix(path);
        // The connection is queued on the listener immediately.
        for (int spin = 0; spin < 1000 && server < 0; ++spin)
            server = acceptClient(listenFd);
        EXPECT_GE(server, 0);
    }

    ~Pair()
    {
        closeFd(client);
        closeFd(server);
        closeFd(listenFd);
    }
};

TEST(Socket, LineRoundtripOverAcceptedConnection)
{
    const std::string dir = scratchDir("roundtrip");
    Pair pair(dir + "/s.sock");

    ASSERT_TRUE(sendLine(pair.client, "{\"op\":\"ping\"}"));
    std::string line;
    EXPECT_EQ(LineReader(pair.server).read(line),
              LineReader::Status::Line);
    EXPECT_EQ(line, "{\"op\":\"ping\"}");

    ASSERT_TRUE(sendLine(pair.server, "pong"));
    LineReader clientReader(pair.client);
    EXPECT_EQ(clientReader.read(line), LineReader::Status::Line);
    EXPECT_EQ(line, "pong");
}

TEST(Socket, PollSplitsCoalescedLinesAndReportsNoData)
{
    const std::string dir = scratchDir("coalesced");
    Pair pair(dir + "/s.sock");
    setNonBlocking(pair.server);
    LineReader reader(pair.server);

    std::string line;
    // Nothing sent yet: a non-blocking pump reports NoData.
    EXPECT_EQ(reader.poll(line), LineReader::Status::NoData);

    // Two frames in one TCP-style burst come back as two lines.
    ASSERT_TRUE(sendLine(pair.client, "first"));
    ASSERT_TRUE(sendLine(pair.client, "second"));
    for (int spin = 0; spin < 1000; ++spin) {
        if (reader.poll(line) == LineReader::Status::Line)
            break;
        waitReadable(pair.server, 0.01);
    }
    EXPECT_EQ(line, "first");
    EXPECT_EQ(reader.poll(line), LineReader::Status::Line);
    EXPECT_EQ(line, "second");
    EXPECT_EQ(reader.poll(line), LineReader::Status::NoData);
}

TEST(Socket, EofAfterPeerCloses)
{
    const std::string dir = scratchDir("eof");
    Pair pair(dir + "/s.sock");
    ASSERT_TRUE(sendLine(pair.client, "last"));
    closeFd(pair.client);
    pair.client = -1;

    LineReader reader(pair.server);
    std::string line;
    EXPECT_EQ(reader.read(line), LineReader::Status::Line);
    EXPECT_EQ(line, "last");
    EXPECT_EQ(reader.read(line), LineReader::Status::Eof);
    // EOF is sticky.
    EXPECT_EQ(reader.read(line), LineReader::Status::Eof);
}

TEST(Socket, OverflowIsStickyPastTheLineGuard)
{
    const std::string dir = scratchDir("overflow");
    Pair pair(dir + "/s.sock");

    // A writer pushing one endless unterminated line; raw send(2)
    // because sendLine would add the newline that makes it legal.
    // MSG_NOSIGNAL: the server end is shut down under it below.
    std::thread writer([&] {
        const std::string chunk(64 * 1024, 'x');
        std::size_t written = 0;
        while (written <= kMaxLineBytes + chunk.size()) {
            const ssize_t n = ::send(pair.client, chunk.data(),
                                     chunk.size(), MSG_NOSIGNAL);
            if (n <= 0)
                break;
            written += static_cast<std::size_t>(n);
        }
        closeFd(pair.client);
        pair.client = -1;
    });

    LineReader reader(pair.server);
    std::string line;
    EXPECT_EQ(reader.read(line), LineReader::Status::Overflow);
    EXPECT_EQ(reader.read(line), LineReader::Status::Overflow);
    // The reader stops draining at Overflow, so the writer may sit
    // blocked on a full socket buffer: shutting the server end down
    // fails that send with EPIPE and lets the join finish.
    ::shutdown(pair.server, SHUT_RDWR);
    writer.join();
}

TEST(Socket, AcceptReportsNoPendingConnection)
{
    const std::string dir = scratchDir("accept");
    const int listenFd = listenUnix(dir + "/s.sock");
    EXPECT_EQ(acceptClient(listenFd), -1);
    closeFd(listenFd);
}

TEST(Socket, ConnectToNothingThrows)
{
    const std::string dir = scratchDir("nothing");
    EXPECT_THROW(connectUnix(dir + "/absent.sock"), ConfigError);
}

TEST(Socket, ListenReclaimsAStaleSocketFile)
{
    const std::string dir = scratchDir("stale");
    const std::string path = dir + "/s.sock";
    {
        const int first = listenUnix(path);
        closeFd(first);
    }
    // The dead listener's socket file is still on disk; a fresh
    // listener (holding the root lock, per the daemon's contract)
    // replaces it instead of failing with EADDRINUSE.
    const int second = listenUnix(path);
    EXPECT_GE(second, 0);
    const int client = connectUnix(path);
    EXPECT_GE(client, 0);
    closeFd(client);
    closeFd(second);
}

} // namespace
} // namespace lsqca::net
