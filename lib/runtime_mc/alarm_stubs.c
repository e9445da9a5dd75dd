/* An alarm (runtime_mc.ml): a timerfd on CLOCK_REALTIME, the clock of
   Unix.gettimeofday. A read blocks until it goes off. Arming it again
   moves that time, earlier or later, without waking the reader, and
   clears an expiry nobody has read. */

#include <math.h>
#include <caml/mlvalues.h>
#include <caml/fail.h>
#include <caml/unixsupport.h>

#ifdef __linux__
#include <sys/timerfd.h>

value fab_mc_alarm_create(value unit)
{
  int fd = timerfd_create(CLOCK_REALTIME, TFD_CLOEXEC);
  if (fd < 0) uerror("timerfd_create", Nothing);
  return Val_int(fd);
}

/* Go off at [at] seconds since the epoch, rounded up to gettimeofday's
   microsecond; at once if [at] is not after the epoch; never if it is
   infinite. */
value fab_mc_alarm_set(value fd, value at)
{
  double us = ceil(Double_val(at) * 1e6);
  struct itimerspec its = { { 0, 0 }, { 0, us < 1. } };
  if (us >= 1. && us < INFINITY) {
    long long u = (long long)us;
    its.it_value.tv_sec = u / 1000000;
    its.it_value.tv_nsec = (u % 1000000) * 1000;
  }
  if (timerfd_settime(Int_val(fd), TFD_TIMER_ABSTIME, &its, NULL) < 0)
    uerror("timerfd_settime", Nothing);
  return Val_unit;
}

#else

value fab_mc_alarm_create(value unit) { caml_failwith("Runtime_mc needs timerfd"); }
value fab_mc_alarm_set(value fd, value at) { caml_failwith("Runtime_mc needs timerfd"); }

#endif
