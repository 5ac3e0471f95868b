"""Transport: typed messages (``message``), the ``bin2`` wire codec
(``codec``) and the real TCP deployment — every node's loop, link and
dial loop, and the broker's driver (``aio``); the provider's and the
consumer's drivers (``tcp``)."""
