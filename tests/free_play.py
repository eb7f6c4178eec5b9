"""The free play's on-air series recomputed from a viewer side's events.

traffic.viewer_side counts its on_air series as it draws.  on_air_series
recomputes it from the events alone, with a set of viewers a channel: the
oracle for the drawn series, and the series of a hand-made side.
"""


def on_air_series(viewers_out, viewers_in) -> tuple[int, ...]:
    """Per step, the channels on air after it, had every viewer been admitted.

    A step's viewer departures go before its arrivals.  A departure of a
    viewer not on its channel is ignored, and a channel is on air while a
    viewer is on it, as in model.CellState.
    """
    watching: dict[int, set[int]] = {}
    on_air = []
    for leaving, joining in zip(viewers_out, viewers_in):
        for _, channel, viewer in leaving:
            viewers = watching.get(channel)
            if viewers is not None and viewer in viewers:
                viewers.remove(viewer)
                if not viewers:
                    del watching[channel]
        for _, channel, viewer in joining:
            viewers = watching.get(channel)
            if viewers is None:
                watching[channel] = {viewer}
            else:
                viewers.add(viewer)
        on_air.append(len(watching))
    return tuple(on_air)
