// A frame-pointer sampling profiler, loaded with LD_PRELOAD (no perf or
// gdb needed). A ticker thread sends SIGPROF every PROF_INTERVAL_US
// (default 200) to the main thread, or with PROF_ALL=1 to every thread
// whose /proc state is R (running). The handler walks the rbp chain of
// the interrupted frame into a preallocated buffer; at exit the samples
// and /proc/self/maps are written to PROF_OUT (default prof-<pid>.txt).
//
// Build:   gcc -O2 -Wall -Werror -fPIC -shared -o sampler.so sampler.c -lpthread
// Run:     LD_PRELOAD=./sampler.so PROF_OUT=prof.txt ./binary ...
// Read:    scripts/profile/symbolize.py ./binary prof.txt
//
// The binary needs frame pointers (RUSTFLAGS="-C force-frame-pointers=yes")
// to give whole stacks. A frame without one leaves rbp holding anything, so
// the walk only follows strictly rising frame addresses inside
// [rsp, rsp + 8 MiB) and stops at the first that is not.
// x86-64 Linux only.

#define _GNU_SOURCE
#include <dirent.h>
#include <pthread.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/syscall.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_DEPTH 128
#define STACK_WINDOW (8u << 20)
#define BUF_WORDS (16u << 20) /* 128 MiB of addresses */

static uint64_t *buf;
static volatile uint64_t used;
static volatile uint64_t dropped;
static volatile int stop;
static pid_t pid, main_tid;
static pthread_t ticker;

static void on_prof(int sig, siginfo_t *info, void *uc_) {
    (void)sig;
    (void)info;
    ucontext_t *uc = uc_;
    uint64_t pcs[MAX_DEPTH];
    uint64_t rip = uc->uc_mcontext.gregs[REG_RIP];
    uint64_t rsp = uc->uc_mcontext.gregs[REG_RSP];
    uint64_t fp = uc->uc_mcontext.gregs[REG_RBP];
    int n = 0;
    pcs[n++] = rip;
    while (n < MAX_DEPTH && fp >= rsp && fp - rsp < STACK_WINDOW - 16 && (fp & 7) == 0) {
        uint64_t next = ((uint64_t *)fp)[0];
        uint64_t ret = ((uint64_t *)fp)[1];
        if (ret < 4096)
            break;
        pcs[n++] = ret;
        if (next <= fp)
            break;
        fp = next;
    }
    uint64_t at = __atomic_fetch_add(&used, (uint64_t)n + 1, __ATOMIC_RELAXED);
    if (at + n + 1 > BUF_WORDS) {
        __atomic_fetch_add(&dropped, 1, __ATOMIC_RELAXED);
        return;
    }
    buf[at] = (uint64_t)n;
    memcpy(&buf[at + 1], pcs, (size_t)n * sizeof(uint64_t));
}

/* Is thread `tid` running (state R in /proc/self/task/<tid>/stat)? */
static int running(const char *tid) {
    char path[64], stat[256];
    snprintf(path, sizeof path, "/proc/self/task/%s/stat", tid);
    FILE *f = fopen(path, "r");
    if (!f)
        return 0;
    size_t len = fread(stat, 1, sizeof stat - 1, f);
    fclose(f);
    stat[len] = 0;
    char *close = strrchr(stat, ')'); /* the name may hold spaces */
    return close && close[1] == ' ' && close[2] == 'R';
}

static void *tick(void *arg) {
    (void)arg;
    const char *iv = getenv("PROF_INTERVAL_US");
    long us = iv ? atol(iv) : 200;
    const char *all_env = getenv("PROF_ALL");
    int all = all_env && atoi(all_env) != 0;
    pid_t self = (pid_t)syscall(SYS_gettid);
    struct timespec ts = {0, (us > 0 ? us : 200) * 1000};
    while (!stop) {
        nanosleep(&ts, NULL);
        if (!all) {
            syscall(SYS_tgkill, pid, main_tid, SIGPROF);
            continue;
        }
        DIR *dir = opendir("/proc/self/task");
        if (!dir)
            continue;
        struct dirent *e;
        while ((e = readdir(dir))) {
            pid_t tid = (pid_t)atoi(e->d_name);
            if (tid > 0 && tid != self && running(e->d_name))
                syscall(SYS_tgkill, pid, tid, SIGPROF);
        }
        closedir(dir);
    }
    return NULL;
}

__attribute__((constructor)) static void start(void) {
    buf = malloc((size_t)BUF_WORDS * sizeof(uint64_t));
    if (!buf)
        return;
    pid = getpid();
    main_tid = (pid_t)syscall(SYS_gettid);
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    pthread_create(&ticker, NULL, tick, NULL);
}

__attribute__((destructor)) static void finish(void) {
    if (!buf)
        return;
    stop = 1;
    pthread_join(ticker, NULL);
    signal(SIGPROF, SIG_IGN);
    char name[64];
    const char *out = getenv("PROF_OUT");
    if (!out) {
        snprintf(name, sizeof name, "prof-%d.txt", (int)pid);
        out = name;
    }
    FILE *f = fopen(out, "w");
    if (!f)
        return;
    FILE *maps = fopen("/proc/self/maps", "r");
    char line[4096];
    while (maps && fgets(line, sizeof line, maps))
        fprintf(f, "map %s", line);
    if (maps)
        fclose(maps);
    uint64_t end = used < BUF_WORDS ? used : BUF_WORDS;
    for (uint64_t at = 0; at < end;) {
        uint64_t n = buf[at];
        if (n == 0 || at + 1 + n > end)
            break;
        fputs("s", f);
        for (uint64_t i = 0; i < n; i++)
            fprintf(f, " %lx", (unsigned long)buf[at + 1 + i]);
        fputs("\n", f);
        at += 1 + n;
    }
    fprintf(f, "dropped %lu\n", (unsigned long)dropped);
    fclose(f);
}
